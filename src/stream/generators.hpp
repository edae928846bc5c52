// Stream generators for the paper's evaluation workloads (Sec. VI):
// uniform, Zipf(alpha), truncated Poisson(lambda), and exact-count streams
// (used for the peak attack: "one id injected 50,000 times while all other
// identifiers occur 50 times").
//
// Two generation modes are provided:
//  * weight-based i.i.d. draws (WeightedStreamGenerator), matching the
//    paper's model where p_j is an occurrence *probability*;
//  * exact multiplicity streams (exact_stream), matching the evaluation
//    set-ups that pin exact frequencies.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "stream/discrete_sampler.hpp"
#include "stream/types.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// --- Weight vectors for the paper's distributions -------------------------

/// Uniform weights over ids [0, n).
std::vector<double> uniform_weights(std::size_t n);

/// Zipf weights: w_i proportional to 1/(i+1)^alpha, ids ranked by index.
/// alpha = 4 reproduces the paper's "peak attack generated by Zipfian
/// distribution with alpha = 4" (Figs. 7a, 8, 9, 10a).
std::vector<double> zipf_weights(std::size_t n, double alpha);

/// Truncated Poisson weights: w_i proportional to lambda^i / i! restricted
/// to i in [0, n).  lambda = n/2 reproduces Figs. 7b / 10b (the "targeted +
/// flooding" bias: a band of ~sqrt(lambda) ids around rank n/2 dominates).
/// Computed in log-space so large lambda does not overflow.
std::vector<double> truncated_poisson_weights(std::size_t n, double lambda);

/// --- Generators ------------------------------------------------------------

/// I.i.d. draws from a fixed weight vector; ids are the weight indices.
class WeightedStreamGenerator {
 public:
  WeightedStreamGenerator(std::span<const double> weights, std::uint64_t seed);

  NodeId next();
  Stream take(std::size_t m);

  /// Occurrence probability p_j of id j (what the omniscient strategy knows).
  double probability(NodeId id) const { return sampler_.probability(id); }
  std::size_t domain() const { return sampler_.size(); }

 private:
  DiscreteSampler sampler_;
  Xoshiro256 rng_;
};

/// Builds a stream with EXACT per-id multiplicities, uniformly shuffled
/// (Fisher-Yates).  counts[i] = number of occurrences of id i.
Stream exact_stream(std::span<const std::uint64_t> counts, std::uint64_t seed);

/// Exact counts for the paper's peak attack: one id occurs `peak_count`
/// times, every other id in [0, n) occurs `base_count` times.
std::vector<std::uint64_t> peak_attack_counts(std::size_t n,
                                              std::size_t peak_id,
                                              std::uint64_t peak_count,
                                              std::uint64_t base_count);

/// Scales a weight vector to integer counts summing (approximately) to m,
/// guaranteeing every id occurs at least `min_count` times — used to build
/// biased-but-complete streams where every node id is present (the paper's
/// weak-connectivity assumption makes every correct id recur).
std::vector<std::uint64_t> counts_from_weights(std::span<const double> weights,
                                               std::uint64_t m,
                                               std::uint64_t min_count = 1);

}  // namespace unisamp
