// Count-Min sketch (Cormode & Muthukrishnan) — Algorithm 2 of the paper.
//
// A s x k matrix of counters with one 2-universal hash per row.  For every
// item j read from the stream, one counter per row is incremented; the
// frequency estimate f̂_j is the minimum of the s counters j maps to.
// Guarantees (for k = ceil(e/eps), s = ceil(ln(1/delta))):
//   f_j <= f̂_j   and   P{ f̂_j > f_j + eps * m } <= delta
// where m is the stream length.  The estimate is always an OVER-estimate,
// which is exactly the handle the paper's adversary tries to exploit
// (Sec. V): colliding forged ids inflate f̂_j for a victim j.
//
// The knowledge-free sampler also needs min_sigma, the minimum over the
// whole matrix (line 6 of Algorithm 3); we maintain it incrementally.
//
// Items are pre-mixed by a fixed 64-bit bijection (SplitMix64) before
// hashing.  The paper's ids are SHA-1 values (r = 160) — effectively random
// — while simulations use small consecutive integers; the Carter-Wegman
// "mod k" map applied to an arithmetic id sequence degenerates into a
// stride pattern that can starve columns.  Mixing restores the
// uniform-throw urn model of Sec. V without weakening 2-universality
// (composition with a fixed bijection preserves the collision bound).
//
// Storage is column-interleaved with a cache-line-padded stride and the row
// hashes are evaluated by runtime-dispatched scalar/SIMD kernels — see
// sketch/layout.hpp for the layout/kernel design and the bit-identity
// contract (every counter, estimate and checksum is independent of layout
// and kernel choice; tests/sketch_layout_differential_test.cpp pins it).
//
// CountMinSketch is the one engine.  ConservativeCountMinSketch (below) and
// DecayingCountMinSketch (sketch/decaying.hpp) are update rules over it:
// they derive privately, re-export the engine's reads, and own only their
// update calls.  The engine's state is protected for them.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

#include "hash/two_universal.hpp"
#include "sketch/layout.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Dimensioning parameters of a Count-Min sketch.
struct CountMinParams {
  std::size_t width = 0;   ///< k = number of counters per row
  std::size_t depth = 0;   ///< s = number of rows
  std::uint64_t seed = 0;  ///< seeds the 2-universal hash bank
  /// Hashing kernel request (sketch/layout.hpp).  kAuto picks the best SIMD
  /// kernel the CPU supports unless UNISAMP_FORCE_SCALAR=1 pins it to the
  /// scalar reference; explicit values override the environment.  Purely a
  /// speed choice: every kernel produces bit-identical sketches.
  SketchKernel kernel = SketchKernel::kAuto;

  /// Paper dimensioning: k = ceil(e/eps), s = ceil(log2(1/delta)).
  static CountMinParams from_error(double epsilon, double delta,
                                   std::uint64_t seed);
  /// Direct dimensioning by (k, s) — what the evaluation section uses.
  static CountMinParams from_dimensions(std::size_t k, std::size_t s,
                                        std::uint64_t seed);

  /// The (epsilon, delta) guarantee implied by (width, depth).
  double epsilon() const;
  double delta() const;
};

/// Streaming Count-Min sketch.
///
/// Contracts shared by every member:
///  - Complexity: update / estimate / update_and_estimate are O(s) in the
///    row count (one 2-universal hash evaluation per row); min_counter and
///    total_count are O(1); merge / halve are O(k*s).
///  - Determinism: all state is a pure function of (params.width/depth/seed,
///    the sequence of mutating calls).  Two sketches built with the same
///    dimensions/seed and fed the same call sequence are bit-identical, on
///    any machine, for ANY kernel choice.
///  - Thread-safety: no internal synchronisation.  Concurrent const access
///    is safe; any mutating call requires external exclusion.
///
/// Batch front-end: prehash_block() hashes up to kPrehashBlock ids in one
/// kernel pass and software-prefetches their counter lines; the *_prehashed
/// members then consume the precomputed physical indices.  The sequence
///   prehash_block(ids, n, pre); for i: update_and_estimate_prehashed(pre, i)
/// is bit-identical to calling update_and_estimate(ids[i]) per id — the
/// prehash only moves the hashing, never changes it.
class CountMinSketch {
 public:
  /// Max ids per prehash_block call (= sketch_detail::kPrehashBlock).
  static constexpr std::size_t kPrehashBlock = sketch_detail::kPrehashBlock;
  /// Hard cap on depth (rows); construction throws above it.  Bounds the
  /// prehash index buffers: depth * kPrehashBlock u32 entries suffice.
  static constexpr std::size_t kMaxDepth = sketch_detail::kMaxDepth;

  explicit CountMinSketch(const CountMinParams& params);

  /// Processes one stream item (increments one counter per row).
  void update(std::uint64_t item, std::uint64_t count = 1);

  /// f̂_item = min over rows of the counter item maps to.  Never
  /// underestimates the true frequency.
  std::uint64_t estimate(std::uint64_t item) const;

  /// Fused update(item, count) followed by estimate(item), hashing the s
  /// rows ONCE and reusing the row indices for the estimate read — the
  /// knowledge-free sampler's hot path (Algorithm 3 updates the sketch and
  /// immediately reads f̂ for the same id).  Bit-identical to the two-call
  /// sequence: returns min over rows of the POST-increment counters and
  /// leaves the sketch in exactly the state update() would.
  std::uint64_t update_and_estimate(std::uint64_t item,
                                    std::uint64_t count = 1);

  /// Hashes items[0..n) (n <= kPrehashBlock) into physical table indices,
  /// out[row * kPrehashBlock + i] for item i, using the resolved kernel,
  /// and prefetches the counters of large tables.  `out` must hold
  /// depth() * kPrehashBlock entries.  Indices depend only on the id and
  /// the hash coefficients — they stay valid across update/merge/halve.
  /// Defined inline so stream loops fuse it with the consume pass.
  void prehash_block(const std::uint64_t* items, std::size_t n,
                     std::uint32_t* out) const {
    assert(n <= kPrehashBlock);
    kernel_(hash_args(), items, n, out);
    // Tables past the L1/L2 comfort zone get their counter lines requested
    // now, a block ahead of the update pass; small tables are resident and
    // the prefetch would be pure instruction overhead.
    if (layout_.padded_count() * sizeof(std::uint64_t) >=
        sketch_detail::kPrefetchMinBytes) {
      const std::uint64_t* base = table_.data();
      for (std::size_t row = 0; row < layout_.depth; ++row)
        for (std::size_t i = 0; i < n; ++i)
          __builtin_prefetch(base + out[row * kPrehashBlock + i], 1);
    }
  }

  /// Warms a table below kPrefetchMinBytes whole, with the hash
  /// coefficients, ahead of a batch on a sketch that has gone cold (the
  /// simulator's flush runs thousands of small sketches in turn).  Larger
  /// tables are left to prehash_block, which prefetches the lines a block
  /// touches.  Changes nothing.
  void prefetch() const {
    const std::size_t bytes = layout_.padded_count() * sizeof(std::uint64_t);
    if (bytes >= sketch_detail::kPrefetchMinBytes) return;
    const char* const table = reinterpret_cast<const char*>(table_.data());
    for (std::size_t off = 0; off < bytes; off += 64)
      __builtin_prefetch(table + off, 1);
    const char* const a = reinterpret_cast<const char*>(a_.data());
    const char* const b = reinterpret_cast<const char*>(b_.data());
    for (std::size_t off = 0; off < layout_.depth * sizeof(std::uint64_t);
         off += 64) {
      __builtin_prefetch(a + off);
      __builtin_prefetch(b + off);
    }
  }

  /// update_and_estimate(items[i], count) consuming prehashed indices.
  /// Two-way unrolled with independent accumulators: each row's cell is
  /// distinct (physical index === row mod stride), so the per-cell work is
  /// independent and min/sum are associative — halving the min-chain depth
  /// changes the schedule, never the result.
  std::uint64_t update_and_estimate_prehashed(const std::uint32_t* pre,
                                              std::size_t i,
                                              std::uint64_t count = 1) {
    // Locals for everything the loop reads: the table stores could alias
    // the members through the u64* otherwise, forcing a reload per row.
    std::uint64_t* const table = table_.data();
    const std::uint64_t min_c = min_counter_;
    const std::size_t depth = layout_.depth;
    std::uint64_t best0 = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t best1 = std::numeric_limits<std::uint64_t>::max();
    std::size_t hits0 = 0, hits1 = 0;
    std::size_t row = 0;
    for (; row + 2 <= depth; row += 2) {
      std::uint64_t& cell0 = table[pre[row * kPrehashBlock + i]];
      std::uint64_t& cell1 = table[pre[(row + 1) * kPrehashBlock + i]];
      // One load per cell: the incremented value feeds both the store and
      // the min chain from a register (re-reading cell after the store
      // would put a store-to-load forward on the critical path).
      const std::uint64_t v0 = cell0;
      const std::uint64_t v1 = cell1;
      hits0 += (v0 == min_c);
      hits1 += (v1 == min_c);
      cell0 = v0 + count;
      cell1 = v1 + count;
      best0 = std::min(best0, v0 + count);
      best1 = std::min(best1, v1 + count);
    }
    if (row < depth) {
      std::uint64_t& cell = table[pre[row * kPrehashBlock + i]];
      const std::uint64_t v = cell;
      hits0 += (v == min_c);
      cell = v + count;
      best0 = std::min(best0, v + count);
    }
    min_multiplicity_ -= hits0 + hits1;
    total_ += count;
    if (min_multiplicity_ == 0) recompute_min();
    return std::min(best0, best1);
  }

  /// estimate(items[i]) consuming prehashed indices.
  std::uint64_t estimate_prehashed(const std::uint32_t* pre,
                                   std::size_t i) const {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t row = 0; row < layout_.depth; ++row)
      best = std::min(best, table_[pre[row * kPrehashBlock + i]]);
    return best;
  }

  /// min_sigma: minimum counter value over the whole matrix (line 6 of
  /// Algorithm 3).  O(1): maintained incrementally.
  std::uint64_t min_counter() const { return min_counter_; }

  /// Number of items processed so far (sum of update counts).
  std::uint64_t total_count() const { return total_; }

  std::size_t width() const { return layout_.width; }
  std::size_t depth() const { return layout_.depth; }
  /// Memory footprint in counters (k*s) — the "memory space of the sampler"
  /// the robustness analysis is parameterized by.
  std::size_t counter_count() const { return layout_.width * layout_.depth; }

  /// The hashing kernel this sketch resolved to: "scalar"/"avx2"/"avx512".
  std::string_view kernel_name() const {
    return sketch_detail::kernel_name(resolved_);
  }

  /// Merges another sketch built with the SAME params/seed (counter-wise
  /// sum) — used when aggregating sub-stream sketches.
  void merge(const CountMinSketch& other);

  /// Halves every counter (integer division) and the total; substrate of
  /// the exponentially decaying variant (sketch/decaying.hpp).
  void halve();

  /// Rebuilds the sketch from `params`: fresh hash coefficients, every
  /// counter zeroed.  The online re-keying lever (scenario DefenseSpec):
  /// whatever collision structure an adversary learned against the old
  /// coefficients dies with them.  Dimensions must be unchanged — re-keying
  /// is a key rotation, not a re-dimensioning — so callers can keep
  /// prehash buffer sizing; throws std::invalid_argument otherwise.
  void rekey(const CountMinParams& params);

  /// Direct row access for white-box tests.
  std::uint64_t counter_at(std::size_t row, std::size_t col) const {
    assert(row < layout_.depth && col < layout_.width);
    return table_[layout_.index(row, col)];
  }

 protected:
  void recompute_min();

  sketch_detail::HashBlockArgs hash_args() const noexcept {
    sketch_detail::HashBlockArgs args;
    args.a = a_.data();
    args.b = b_.data();
    args.magic = magic_;
    args.range = layout_.width;
    args.depth = static_cast<std::uint32_t>(layout_.depth);
    args.stride = static_cast<std::uint32_t>(layout_.stride);
    return args;
  }

  /// One Mersenne reduction per item, shared by all rows (see
  /// TwoUniversalFamily::reduce).
  static std::uint64_t premix(std::uint64_t item) noexcept {
    return TwoUniversalFamily::reduce(SplitMix64::mix(item));
  }

  sketch_detail::InterleavedLayout layout_;
  /// Carter-Wegman row coefficients in SoA form (a_[r], b_[r] for row r),
  /// drawn exactly as TwoUniversalFamily draws them (same seed stream).
  sketch_detail::AlignedU64Buffer a_;
  sketch_detail::AlignedU64Buffer b_;
  std::uint64_t magic_;  ///< floor((2^64-1)/width), for the mod-k reduction
  sketch_detail::HashBlockFn kernel_;
  sketch_detail::ResolvedKernel resolved_;
  /// Interleaved counter storage, layout_.padded_count() entries; padding
  /// rows depth..stride-1 of each column are never addressed and stay 0.
  sketch_detail::AlignedU64Buffer table_;
  std::uint64_t min_counter_ = 0;
  std::uint64_t total_ = 0;
  // How many counters currently equal min_counter_; lets update() refresh the
  // minimum in O(1) amortized instead of scanning the matrix.
  std::size_t min_multiplicity_;
};

/// Conservative-update variant (Estan & Varghese): on update, only counters
/// equal to the current estimate are incremented.  Strictly tighter
/// estimates than plain Count-Min for point queries; used as an ablation of
/// the knowledge-free sampler's frequency oracle.
///
/// Only the update rule is its own: storage, hash bank, kernels, prefetch,
/// the estimate reads and min tracking are CountMinSketch's, so the
/// complexity / determinism / thread-safety / batch-front-end contracts are
/// the same (O(s) updates and point reads, bit-deterministic from
/// (dimensions, seed, call sequence) for any kernel, const-safe only).
/// Conservative update never decreases a counter, so the minimum is
/// monotone and the inherited multiplicity tracking stays exact.  merge and
/// halve are not defined for this rule and stay hidden.
class ConservativeCountMinSketch : private CountMinSketch {
 public:
  using CountMinSketch::kMaxDepth;
  using CountMinSketch::kPrehashBlock;

  using CountMinSketch::CountMinSketch;

  void update(std::uint64_t item, std::uint64_t count = 1);

  /// Fused update + estimate (see CountMinSketch::update_and_estimate).
  /// The conservative rule raises every lagging cell to est+count, so the
  /// post-update estimate is exactly est+count — returned without a second
  /// read pass, bit-identical to update() then estimate().
  std::uint64_t update_and_estimate(std::uint64_t item,
                                    std::uint64_t count = 1);
  std::uint64_t update_and_estimate_prehashed(const std::uint32_t* pre,
                                              std::size_t i,
                                              std::uint64_t count = 1) {
    return raise_cells(pre + i, kPrehashBlock, count);
  }

  using CountMinSketch::counter_at;
  using CountMinSketch::depth;
  using CountMinSketch::estimate;
  using CountMinSketch::estimate_prehashed;
  using CountMinSketch::kernel_name;
  using CountMinSketch::min_counter;
  using CountMinSketch::prefetch;
  using CountMinSketch::prehash_block;
  using CountMinSketch::rekey;  // no state of its own to reset
  using CountMinSketch::total_count;
  using CountMinSketch::width;

 private:
  /// Shared read-then-raise body over precomputed physical cell indices.
  std::uint64_t raise_cells(const std::uint32_t* idx, std::size_t idx_stride,
                            std::uint64_t count);
};

}  // namespace unisamp
