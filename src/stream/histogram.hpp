// Frequency accounting of id streams: per-id counts, distinct count, max
// frequency, normalised distribution.  Used everywhere the evaluation
// compares input and output streams (Figs. 5-7, Table II).
//
// Storage is one flat open-addressing table of (id, count) slots with linear
// probing (the FlatIdSet family), a zero count marking an empty slot, so
// every NodeId value is a valid key and no occupancy array is needed.
// Entries are never erased, so probe runs never break.  An id's home slot is
// the top bits of its Fibonacci hash (Knuth, TAOCP 6.4): the ids of a
// simulation are mostly dense ranges, which this hash spaces out evenly, so
// a lookup probes ~1.0 slots where a mixing hash such as SplitMix64 probes
// ~1.7 at the same load and mispredicts the loop exit.  add_stream hashes
// each group of 16 ids once and prefetches their home slots before updating
// them: a simulated node's histogram is cold when its inbox is flushed, and
// the misses then overlap instead of queueing.
//
// Contracts:
//  - Complexity: add / count are O(1) expected, O(table) worst case;
//    add_stream is O(len) expected; max_frequency, most_frequent_id,
//    sorted_frequencies, distribution, count_if, raw() iteration and
//    operator== walk the whole table, O(capacity).
//  - Memory: 16 B per slot.  The table allocates nothing until the first
//    add, starts at 16 slots and doubles whenever an insert would pass 3/4
//    load, so capacity stays under max(16, 8/3 * distinct()) slots.
//  - Determinism: purely value-semantic, state depends only on the sequence
//    of adds.  raw()'s iteration order is unspecified (it follows the hash
//    and the growth history); readers that need an order sort.
//  - Limits: total() must stay below 2^64.  Overflow is not checked in
//    release builds; debug builds assert.
//  - Thread-safety: none; concurrent const access is safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "stream/types.hpp"

namespace unisamp {

/// Sparse frequency histogram over an unbounded id domain.
class FrequencyHistogram {
 public:
  using Entry = std::pair<NodeId, std::uint64_t>;

  /// Forward range over the nonzero (id, count) entries, each exactly once,
  /// in unspecified order.  Invalidated by the next add.
  class Entries {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = Entry;
      using difference_type = std::ptrdiff_t;
      using pointer = const Entry*;
      using reference = const Entry&;

      iterator() = default;
      reference operator*() const { return *slot_; }
      pointer operator->() const { return slot_; }
      iterator& operator++() {
        ++slot_;
        skip_empty();
        return *this;
      }
      iterator operator++(int) {
        iterator before = *this;
        ++*this;
        return before;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.slot_ == b.slot_;
      }

     private:
      friend class Entries;
      iterator(const Entry* slot, const Entry* end) : slot_(slot), end_(end) {
        skip_empty();
      }
      void skip_empty() {
        while (slot_ != end_ && slot_->second == 0) ++slot_;
      }

      const Entry* slot_ = nullptr;
      const Entry* end_ = nullptr;
    };

    iterator begin() const { return iterator(first_, last_); }
    iterator end() const { return iterator(last_, last_); }

   private:
    friend class FrequencyHistogram;
    Entries(const Entry* first, const Entry* last)
        : first_(first), last_(last) {}

    const Entry* first_;
    const Entry* last_;
  };

  /// Adds `count` occurrences of id.  add(id, 0) is a no-op: it does not
  /// make id distinct.
  void add(NodeId id, std::uint64_t count = 1);
  void add_stream(std::span<const NodeId> stream);

  std::uint64_t count(NodeId id) const;
  /// Sum of the counts of the ids for which pred(id) holds.  Walks every
  /// slot and adds count * pred(id): an empty slot's count is 0, so there is
  /// no occupancy test, and a branch-free pred leaves the walk without a
  /// data-dependent branch (the "no-branch" plan of Ross, ACM TODS 2004;
  /// a `pred ? count : 0` ternary compiles to a branch).
  template <class Pred>
  std::uint64_t count_if(Pred pred) const {
    std::uint64_t sum = 0;
    for (const Entry& e : slots_)
      sum += e.second * static_cast<std::uint64_t>(pred(e.first));
    return sum;
  }
  std::uint64_t total() const { return total_; }
  std::size_t distinct() const { return distinct_; }
  std::uint64_t max_frequency() const;
  /// Id with the largest count, the smallest such id on ties; 0 when empty.
  NodeId most_frequent_id() const;

  /// Frequencies sorted descending — the log-log rank/frequency curve of
  /// Fig. 5.
  std::vector<std::uint64_t> sorted_frequencies() const;

  /// Normalised distribution over the dense domain [0, n); ids >= n ignored.
  std::vector<double> distribution(std::uint64_t n) const;

  Entries raw() const {
    return Entries(slots_.data(), slots_.data() + slots_.size());
  }

  /// Same multiset of ids: equal total(), distinct() and per-id count(),
  /// whatever the insertion order or table capacity.
  friend bool operator==(const FrequencyHistogram& a,
                         const FrequencyHistogram& b);

  /// Fibonacci hash of id; its top log2(capacity) bits are id's home slot.
  static constexpr std::uint64_t hash(NodeId id) {
    return id * 0x9E3779B97F4A7C15ULL;  // floor(2^64 / golden ratio), odd
  }

 private:
  std::size_t home(std::uint64_t h) const {
    return static_cast<std::size_t>(h >> shift_);
  }
  std::size_t probe(std::uint64_t h, NodeId id) const;
  void bump(std::uint64_t h, NodeId id, std::uint64_t count);
  void grow();

  std::vector<Entry> slots_;  // power-of-two size; count 0 = empty slot
  std::size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(slots_.size()), set with the first slots
  std::size_t distinct_ = 0;
  std::uint64_t total_ = 0;
};

/// Summary statistics in the shape of the paper's Table II.
struct TraceStats {
  std::uint64_t stream_size = 0;    ///< m  ("# ids")
  std::uint64_t distinct_ids = 0;   ///< n  ("# distinct ids")
  std::uint64_t max_frequency = 0;  ///< "max. freq."
};

TraceStats compute_stats(std::span<const NodeId> stream);

}  // namespace unisamp
