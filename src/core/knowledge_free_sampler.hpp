// Knowledge-free one-pass strategy — Algorithm 3 of the paper.
//
// Makes NO assumption on the input stream: neither its length, nor the
// number of distinct ids, nor their frequencies.  A Count-Min sketch
// (Algorithm 2) runs in parallel on the same stream ("cobegin"), and the
// omniscient strategy's insertion probability is replaced by
//     a_j = min_sigma / f-hat_j
// where f-hat_j is the sketch estimate of j's frequency and min_sigma is
// the minimum counter of the whole sketch matrix (line 6 of Algorithm 3).
// Eviction is a uniform pick from Gamma (r_k = 1/c, line 11).
//
// While any sketch counter is still zero, min_sigma = 0 and hence a_j = 0:
// no eviction happens until the sketch has seen enough distinct ids.  This
// is faithful to the pseudo-code and is exactly the lever the flooding
// attack of Sec. V-B plays against (filling every counter).
//
// The class is templated over the sketch type so the conservative-update
// variant can be ablated; KnowledgeFreeSampler is the paper-faithful alias.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/sampler.hpp"
#include "sketch/count_min.hpp"
#include "sketch/decaying.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Knowledge-free sampling strategy over a pluggable Count-Min-style sketch
/// (any type exposing update_and_estimate / estimate / min_counter).
///
/// Contracts:
///  - Complexity: process / process_stream are O(s) per id (one fused
///    sketch pass) plus O(1) expected membership/eviction work; sample() is
///    O(1).
///  - Determinism: output is a pure function of (c, sketch params, seed,
///    input sequence).  process_stream is bit-identical to calling
///    process() per id — same emitted ids, same RNG consumption.
///  - Thread-safety: none; one sampler serves one node's stream under
///    external exclusion.  Concurrent const access (memory(), sketch()) is
///    safe only while no mutating call runs.
template <typename Sketch>
class BasicKnowledgeFreeSampler final : public NodeSampler {
 public:
  BasicKnowledgeFreeSampler(std::size_t c, const CountMinParams& sketch_params,
                            std::uint64_t seed)
    requires std::constructible_from<Sketch, const CountMinParams&>
      : BasicKnowledgeFreeSampler(c, Sketch(sketch_params), seed) {}

  /// Takes a pre-built sketch — needed for sketch variants with extra
  /// construction parameters (e.g. the decaying sketch's half-life).
  BasicKnowledgeFreeSampler(std::size_t c, Sketch sketch, std::uint64_t seed)
      : c_(c), sketch_(std::move(sketch)), members_(c), rng_(seed) {
    if (c_ == 0)
      throw std::invalid_argument("memory capacity must be positive");
    gamma_.reserve(c_);
  }

  NodeId process(NodeId id) override { return process_one(id); }

  /// Devirtualized batch loop: one virtual dispatch per stream instead of
  /// per item, with the sketch work split into a blocked prehash front-end
  /// (kPrehashBlock ids hashed per kernel pass, counter lines prefetched a
  /// block ahead — see sketch/layout.hpp) and per-id consumption of the
  /// precomputed indices.  Bit-identical to calling process() once per id:
  /// same counters, same emitted ids, same RNG consumption — prehashing
  /// moves the hashing earlier but never changes it.
  void process_stream(std::span<const NodeId> input, Stream& output) override {
    output.reserve(output.size() + input.size());
    // Double-buffered software pipeline: hash block i+1 before consuming
    // block i, so the (vector-port) kernel of the next block overlaps the
    // (scalar-port) membership/eviction work of the current one.  Indices
    // depend only on the id and the hash coefficients — never on counter
    // state — so hashing ahead is bit-identical to hashing on demand.
    std::uint32_t pre[2][Sketch::kMaxDepth * Sketch::kPrehashBlock];
    std::size_t offset = 0;
    std::size_t n = std::min(Sketch::kPrehashBlock, input.size());
    if (n > 0) sketch_.prehash_block(input.data(), n, pre[0]);
    std::size_t cur = 0;
    while (offset < input.size()) {
      const std::size_t next_off = offset + n;
      const std::size_t next_n =
          std::min(Sketch::kPrehashBlock, input.size() - next_off);
      if (next_n > 0)
        sketch_.prehash_block(input.data() + next_off, next_n, pre[cur ^ 1]);
      NodeId emit[Sketch::kPrehashBlock];
      for (std::size_t i = 0; i < n; ++i)
        emit[i] = process_prehashed(input[offset + i], pre[cur], i);
      output.insert(output.end(), emit, emit + n);
      offset = next_off;
      n = next_n;
      cur ^= 1;
    }
  }

  /// Warms every counter line of a small sketch with its hash
  /// coefficients (CountMinSketch::prefetch), the Gamma array, and the
  /// membership slots of the first kPrehashBlock ids of `next`.
  void prefetch(std::span<const NodeId> next) const override {
    sketch_.prefetch();
    // One id per 64-byte line, plus the last id: Gamma is only 8-byte
    // aligned, so its last line may start past the stride.
    for (std::size_t i = 0; i < gamma_.size(); i += 8)
      __builtin_prefetch(gamma_.data() + i);
    if (!gamma_.empty()) __builtin_prefetch(&gamma_.back());
    for (const NodeId id :
         next.first(std::min(next.size(), Sketch::kPrehashBlock)))
      members_.prefetch(id);
  }

  NodeId sample() override {
    if (gamma_.empty())
      throw std::logic_error("sample() before any id was processed");
    return gamma_[rng_.next_below(gamma_.size())];
  }

  std::vector<NodeId> memory() const override { return gamma_; }
  std::size_t capacity() const override { return c_; }
  std::string_view name() const override { return "knowledge-free"; }

  /// Sketch key rotation (see NodeSampler::rekey).  Dimensions are kept;
  /// only the hash coefficients and counters change, so in-flight prehash
  /// pipelines must not span a rekey (the engine re-keys only between
  /// rounds, never inside a batch).
  bool rekey(std::uint64_t seed) override {
    sketch_.rekey(CountMinParams::from_dimensions(sketch_.width(),
                                                  sketch_.depth(), seed));
    return true;
  }

  const Sketch& sketch() const { return sketch_; }

  /// Current insertion probability the sampler would use for `id` if it
  /// arrived now (exposed for tests; does not mutate the sketch).
  double insertion_probability(NodeId id) const {
    const std::uint64_t f_hat = sketch_.estimate(id);
    if (f_hat == 0) return 1.0;  // unseen id would enter while |Gamma| < c
    return static_cast<double>(sketch_.min_counter()) /
           static_cast<double>(f_hat);
  }

 private:
  NodeId process_one(NodeId id) {
    // cobegin: Algorithm 2 reads the same element first.  The fused
    // primitive hashes the s rows once and reuses the row indices for the
    // estimate read — bit-identical to update(id) then estimate(id), at
    // half the hashing cost (the dominant term of this hot path).
    return admit_and_emit(id, sketch_.update_and_estimate(id));
  }

  NodeId process_prehashed(NodeId id, const std::uint32_t* pre,
                           std::size_t i) {
    return admit_and_emit(id, sketch_.update_and_estimate_prehashed(pre, i));
  }

  /// Algorithm 3 lines 7-12 given the post-update estimate f̂_id.
  NodeId admit_and_emit(NodeId id, std::uint64_t f_hat) {
    const std::uint64_t min_sigma = sketch_.min_counter();
    if (!contains(id)) {
      if (gamma_.size() < c_) {
        gamma_.push_back(id);
        members_.insert(id);
      } else {
        const double a_j = f_hat == 0 ? 0.0
                                      : static_cast<double>(min_sigma) /
                                            static_cast<double>(f_hat);
        if (rng_.bernoulli(a_j)) {
          const std::size_t victim = rng_.next_below(gamma_.size());
          members_.erase(gamma_[victim]);
          gamma_[victim] = id;
          members_.insert(id);
        }
      }
    }
    // Uniform pick from Gamma (non-virtual: the emit of sample() inlined).
    return gamma_[rng_.next_below(gamma_.size())];
  }

  bool contains(NodeId id) const { return members_.contains(id); }

  std::size_t c_;
  Sketch sketch_;
  // Vector for O(1) uniform picks, flat probing set for O(1) membership
  // (one contains() per stream item): the evaluation sweeps run c up to
  // ~10^3 over multi-million-id streams.
  std::vector<NodeId> gamma_;
  FlatIdSet members_;
  Xoshiro256 rng_;
};

/// The paper's Algorithm 3.
using KnowledgeFreeSampler = BasicKnowledgeFreeSampler<CountMinSketch>;

/// Ablation: same strategy with conservative-update estimates.
using ConservativeKnowledgeFreeSampler =
    BasicKnowledgeFreeSampler<ConservativeCountMinSketch>;

/// Extension: same strategy over an exponentially decaying sketch, so the
/// frequency oracle tracks the recent stream (adapts after the stationary
/// T0 assumption is violated, e.g. residual churn or slow-switch attacks).
using DecayingKnowledgeFreeSampler =
    BasicKnowledgeFreeSampler<DecayingCountMinSketch>;

}  // namespace unisamp
