// Omniscient one-pass strategy — Algorithm 1 of the paper.
//
// Knows the occurrence probability p_j of every id j in the input stream
// (and hence the population size n).  On reading j:
//   * if |Gamma| < c: insert j;
//   * else with probability a_j = min_i(p_i)/p_j: evict a victim k chosen
//     with probability r_k / sum_{l in Gamma} r_l and insert j;
//   * emit a uniform pick from Gamma.
// With the paper's choice r_j = 1/n the eviction victim is uniform over
// Gamma.  Corollary 5: the output stream satisfies Uniformity and
// Freshness whatever the bias of the input.
//
// Gamma is a SET of ids (no duplicates): re-reading an id already stored
// leaves Gamma unchanged (inserting it again would be a no-op on a set).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/sampler.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace unisamp {

class OmniscientSampler final : public NodeSampler {
 public:
  /// `probabilities[j]` = p_j for ids j in [0, probabilities.size()).
  /// All entries must be positive (every node recurs in the stream, by the
  /// weak-connectivity assumption of Sec. III-C).
  OmniscientSampler(std::size_t c, std::vector<double> probabilities,
                    std::uint64_t seed);

  NodeId process(NodeId id) override;
  /// Devirtualized batch loop (bit-identical to per-item process calls).
  void process_stream(std::span<const NodeId> input, Stream& output) override;
  NodeId sample() override;
  std::vector<NodeId> memory() const override { return gamma_; }
  std::size_t capacity() const override { return c_; }
  std::string_view name() const override { return "omniscient"; }

  /// Insertion probability a_j (exposed for tests).
  double insertion_probability(NodeId id) const;

 private:
  bool contains(NodeId id) const { return members_.contains(id); }
  NodeId process_one(NodeId id);

  std::size_t c_;
  std::vector<double> p_;
  double p_min_;
  // Gamma: vector for O(1) uniform picks, flat set for O(1) membership
  // (streams are millions of ids and c reaches ~10^3 in the Fig. 10/12
  // sweeps, so the linear scan would dominate).
  std::vector<NodeId> gamma_;
  FlatIdSet members_;
  Xoshiro256 rng_;
};

}  // namespace unisamp
