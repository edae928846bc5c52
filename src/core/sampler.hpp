// Node sampling service interface (Sec. IV).
//
// A sampler is a purely local, one-pass functionality: it reads the input
// stream sigma_i of node i one identifier at a time and emits one identifier
// to the output stream sigma'_i per input identifier (Algorithms 1 and 3
// both `write k' in the output stream` on every read).  `sample()` exposes
// S_i(t), the service's answer to "give me a random node", without
// consuming input.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "stream/types.hpp"

namespace unisamp {

class NodeSampler {
 public:
  virtual ~NodeSampler() = default;

  /// Processes one id from the input stream; returns the id written to the
  /// output stream (uniform pick from the sampling memory Gamma).
  virtual NodeId process(NodeId id) = 0;

  /// S_i(t): a uniform pick from the current sampling memory.  Valid once
  /// at least one id has been processed.
  virtual NodeId sample() = 0;

  /// Current contents of the sampling memory Gamma (<= c ids).
  virtual std::vector<NodeId> memory() const = 0;

  /// Capacity c of the sampling memory.
  virtual std::size_t capacity() const = 0;

  virtual std::string_view name() const = 0;

  /// Rotates the strategy's frequency-oracle key: fresh hash coefficients
  /// seeded from `seed`, counters zeroed, with the sampling memory Gamma
  /// and the sampler's own RNG untouched.  The online defense lever
  /// (scenario DefenseSpec) — an adversary's learned collision structure
  /// dies with the old key, at the cost of the oracle relearning the
  /// stream (min_sigma drops to 0, freezing admissions until the fresh
  /// sketch fills).  Returns false when the strategy has no keyed oracle to
  /// rotate (omniscient, baselines) — the default.
  virtual bool rekey(std::uint64_t seed) {
    (void)seed;
    return false;
  }

  /// Warms the state a process_stream(next) call reads first, so a caller
  /// that knows which sampler runs next can overlap its cache misses with
  /// other work.  Const and free of side effects: no RNG draw, no counter
  /// or Gamma change.  The default does nothing.
  virtual void prefetch(std::span<const NodeId> next) const { (void)next; }

  /// Batched equivalent of calling process() once per id, appending each
  /// emitted id to `output`.  Bit-identical to the per-item loop (same ids,
  /// same RNG consumption) — overrides exist purely to hoist per-item
  /// virtual dispatch out of the hot loop, not to change semantics.
  virtual void process_stream(std::span<const NodeId> input, Stream& output);

  /// Convenience: runs a whole stream through the sampler and returns the
  /// output stream (via process_stream, so it takes the batched fast path).
  Stream run(std::span<const NodeId> input);
};

}  // namespace unisamp
