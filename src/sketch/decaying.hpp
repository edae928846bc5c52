// Exponentially decaying Count-Min sketch — a practical extension for the
// post-T0 world the paper brackets out.
//
// The paper assumes churn ceases at time T0 so that occurrence
// probabilities are stationary.  In a live system the adversary can also
// play *slow* games: build up counter mass early, then switch ids.  A
// decaying sketch halves every counter each `half_life` updates, so
// estimates track the RECENT stream (an exponentially-weighted window)
// instead of the full history, at the same O(k*s) space.
//
// The estimate is therefore relative to the decayed mass, which is what
// the knowledge-free strategy divides by anyway (a_j = min_sigma/f^_j is a
// RATIO, invariant under the global scaling decay applies) — so the
// sampler semantics carry over unchanged.
#pragma once

#include <cstdint>

#include "sketch/count_min.hpp"

namespace unisamp {

/// Decay rule over the one Count-Min engine (sketch/count_min.hpp), not a
/// second sketch: the storage, hashing, estimate reads and min tracking are
/// CountMinSketch's own; this class adds the half-life counters and the
/// three decay-aware update calls.  merge is not part of its interface,
/// and halve runs only on the decay schedule.
class DecayingCountMinSketch : private CountMinSketch {
 public:
  using CountMinSketch::kMaxDepth;
  using CountMinSketch::kPrehashBlock;

  /// `half_life` = number of updates after which past contributions weigh
  /// half.  Decay is applied lazily in O(k*s) bursts every half_life
  /// updates (integer halving), keeping update O(s) amortised.
  DecayingCountMinSketch(const CountMinParams& params,
                         std::uint64_t half_life);

  void update(std::uint64_t item, std::uint64_t count = 1);
  /// Fused update + estimate, bit-identical to the two-call sequence
  /// (including across a decay boundary: when this update triggers the
  /// halving, the returned estimate reads the halved counters, exactly as
  /// a separate estimate() call after update() would).
  std::uint64_t update_and_estimate(std::uint64_t item,
                                    std::uint64_t count = 1);

  /// Batch front-end (see CountMinSketch::prehash_block).  The prehashed
  /// indices depend only on the id and the hash coefficients, so they stay
  /// valid across decay boundaries — a block prehashed before a halving is
  /// still consumed correctly after it.
  using CountMinSketch::prehash_block;
  std::uint64_t update_and_estimate_prehashed(const std::uint32_t* pre,
                                              std::size_t i,
                                              std::uint64_t count = 1);
  /// Key rotation (see CountMinSketch::rekey): the sketch is rebuilt with
  /// fresh coefficients and zeroed counters; the half-life is kept and the
  /// decay phase restarts (a fresh sketch has nothing to decay).
  /// decay_count() keeps its cumulative history.
  void rekey(const CountMinParams& params);
  std::uint64_t half_life() const { return half_life_; }
  std::uint64_t decay_count() const { return decays_; }

  using CountMinSketch::counter_at;
  using CountMinSketch::depth;
  using CountMinSketch::estimate;
  using CountMinSketch::estimate_prehashed;
  using CountMinSketch::kernel_name;
  using CountMinSketch::min_counter;
  using CountMinSketch::prefetch;
  using CountMinSketch::total_count;
  using CountMinSketch::width;

 private:
  void decay();

  std::uint64_t half_life_;
  std::uint64_t since_decay_ = 0;
  std::uint64_t decays_ = 0;
};

}  // namespace unisamp
