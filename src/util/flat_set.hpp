// Flat open-addressing set of 64-bit ids, specialized for the samplers'
// membership test (Gamma contains at most c ids; contains() runs once per
// stream item, insert/erase only on eviction).
//
// Linear probing over a power-of-two table sized at >= 4x the expected
// element count (load factor <= ~25%, so probes average ~1), SplitMix64 as
// the index hash, and backward-shift deletion (no tombstones, so probe
// sequences never degrade).  All NodeId values are valid keys — occupancy
// lives in a parallel byte array, not in a sentinel key.
//
// Contracts:
//  - Complexity: contains / insert / erase are O(1) expected, O(table)
//    worst case; no allocation after construction.
//  - Determinism: purely value-semantic — behaviour depends only on the
//    sequence of operations, never on addresses or global state.
//  - Thread-safety: none; concurrent const access is safe.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace unisamp {

class FlatIdSet {
 public:
  /// Sizes the table for `expected` elements; exceeding it is legal (the
  /// table doubles whenever the load factor would pass 1/4), so callers
  /// with a hard capacity (the samplers' c) pass it here purely to avoid
  /// rehashes.
  explicit FlatIdSet(std::size_t expected) { rebuild(capacity_for(expected)); }

  bool contains(std::uint64_t id) const noexcept {
    for (std::size_t i = index_of(id); full_[i]; i = (i + 1) & mask_)
      if (keys_[i] == id) return true;
    return false;
  }

  /// Precondition: id is not present (the samplers only insert after a
  /// failed contains()).  Inserting a duplicate would store it twice and
  /// double-count size_; debug builds assert, release trusts the caller.
  void insert(std::uint64_t id) {
    assert(!contains(id) &&
           "FlatIdSet::insert precondition violated: duplicate id");
    if (4 * (size_ + 1) > keys_.size()) grow();
    std::size_t i = index_of(id);
    while (full_[i]) i = (i + 1) & mask_;
    keys_[i] = id;
    full_[i] = 1;
    ++size_;
  }

  /// Precondition: id is present.  Backward-shift deletion: every element
  /// in the probe run after the hole that is displaced from its ideal slot
  /// moves one step back, so lookups never cross a stale gap.
  ///
  /// An absent id would make the release-mode probe loop walk stale keys
  /// forever (erased slots keep their key bytes, only full_ is reset);
  /// debug builds bound the scan and reject matches on non-full slots.
  void erase(std::uint64_t id) noexcept {
    std::size_t hole = index_of(id);
#ifndef NDEBUG
    std::size_t probes = 0;
#endif
    while (keys_[hole] != id) {
#ifndef NDEBUG
      // An empty slot terminates every probe run: walking past one means
      // the id was never inserted.  The occupancy-scan bound catches the
      // pathological fully-wrapped run.
      assert(full_[hole] &&
             "FlatIdSet::erase precondition violated: id not present");
      assert(++probes <= mask_ &&
             "FlatIdSet::erase precondition violated: probe scan wrapped");
#endif
      hole = (hole + 1) & mask_;
    }
    assert(full_[hole] &&
           "FlatIdSet::erase precondition violated: matched a stale slot");
    std::size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      if (!full_[j]) break;
      // keys_[j] may fill the hole iff the hole lies within its probe run,
      // i.e. its displacement reaches back at least to the hole.
      const std::size_t displacement = (j - index_of(keys_[j])) & mask_;
      if (displacement >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        hole = j;
      }
    }
    full_[hole] = 0;
    --size_;
  }

  std::size_t size() const noexcept { return size_; }

  /// Warms the slot contains(id) probes first.  Changes nothing.
  void prefetch(std::uint64_t id) const noexcept {
    const std::size_t i = index_of(id);
    __builtin_prefetch(full_.data() + i);
    __builtin_prefetch(keys_.data() + i);
  }

 private:
  std::size_t index_of(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>(SplitMix64::mix(id)) & mask_;
  }

  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 4 * expected) cap <<= 1;
    return cap;
  }

  void rebuild(std::size_t cap) {
    keys_.assign(cap, 0);
    full_.assign(cap, 0);
    mask_ = cap - 1;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    rebuild(2 * old_keys.size());
    size_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i)
      if (old_full[i]) insert(old_keys[i]);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> full_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace unisamp
