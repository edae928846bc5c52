// Sharded concurrent ingest front over the per-node sampling service.
//
// The paper specifies the sampling service per node and single-stream; the
// production traffic model (millions of users hitting one ingest tier)
// needs many streams absorbed at once.  ShardedSamplingService partitions
// the id space across S independent SamplingService shards by
// SplitMix64::mix(id) % S — every occurrence of an id lands on the same
// shard, so each shard runs the unmodified Algorithm 3 over a well-defined
// sub-stream — and feeds the shards their sub-streams concurrently through
// parallel_for_index (util/parallel.hpp), one index per shard.
//
// Determinism contract (the load-bearing property, mirrored from
// util/parallel.hpp's trial-order reduction):
//  - For a fixed (config, input sequence), every observable output — the
//    merged output stream, merged histogram, per-shard state, sample()
//    draws, state_checksum() — is the CANONICAL SERIALIZATION: partition
//    the input in arrival order into per-shard sub-streams, run each shard
//    serially over its sub-stream, reduce shard outputs in shard order.
//  - ingest() partitions on the calling thread, in arrival order, and each
//    shard is then touched by exactly one worker, so the result is that
//    serialization for any trial_threads() count.  Threads only change
//    wall clock.
//  - Shard seeds are derive_seed(base.seed, shard): with S = 1 the whole
//    service is bit-identical to one SamplingService configured with seed
//    derive_seed(base.seed, 0) (differential-tested).
//
// Exception contract: if a shard's sampler throws mid-ingest (e.g. an
// omniscient shard fed an unknown id), that shard stops at the throw point
// with partial state accounted per SamplingService's own contract, every
// OTHER shard still receives its complete sub-stream, and the first
// exception in shard order is rethrown once every shard is done — the
// same state the canonical serialization reaches, for any thread count.
//
// Thread-safety: ingest() feeds the shards concurrently but the service
// object itself serves one caller at a time; queries (sample(),
// merged_* , state_checksum()) need external exclusion against ingest(),
// exactly like SamplingService.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/sampling_service.hpp"
#include "stream/histogram.hpp"
#include "util/rng.hpp"

namespace unisamp {

/// Configuration of the sharded front.  `base` is the per-shard template;
/// base.seed acts as the master seed (shard s runs at
/// derive_seed(base.seed, s), the query RNG at a separate derivation).
struct ShardedServiceConfig {
  ServiceConfig base;
  std::size_t shard_count = 1;  ///< S independent sampler shards
};

class ShardedSamplingService {
 public:
  explicit ShardedSamplingService(ShardedServiceConfig config);

  /// Shard owning `id` under S shards (stable across the id's occurrences).
  static std::size_t shard_of(NodeId id, std::size_t shards) noexcept {
    return static_cast<std::size_t>(SplitMix64::mix(id) % shards);
  }

  /// Absorbs a stream: partitions it by shard_of, then feeds every shard
  /// its sub-stream concurrently.  Blocking; returns once every id is fully
  /// accounted.  Output is the canonical serialization for any thread count.
  void ingest(std::span<const NodeId> ids);

  /// getsample over the union of shard memories: a shard is picked with
  /// probability |Gamma_s| / sum |Gamma|, then answers with its own
  /// S_i(t).  nullopt before the first id arrives.  Deterministic: draws
  /// come from a dedicated query RNG plus the picked shard's RNG, in call
  /// order (shard-order reduction of the sizes).
  std::optional<NodeId> sample();

  std::size_t shard_count() const { return shards_.size(); }
  const SamplingService& shard(std::size_t s) const { return *shards_[s]; }
  const ShardedServiceConfig& config() const { return config_; }

  /// Total ids fully processed across shards (shard-order sum).
  std::uint64_t processed() const;

  /// Shard-order reduction of per-shard histograms (counts add).
  FrequencyHistogram merged_histogram() const;

  /// Shard-order concatenation of per-shard output streams — the canonical
  /// serialization of the merged output (requires base.record_output).
  Stream merged_output_stream() const;

  /// Determinism fingerprint: folds every shard's processed count, output
  /// histogram (id-sorted) and, when recorded, output stream, in shard
  /// order.  Equal checksums <=> identical observable state.
  std::uint64_t state_checksum() const;

 private:
  ShardedServiceConfig config_;
  std::vector<std::unique_ptr<SamplingService>> shards_;
  // Per-shard partition buffers, reused so steady state allocates nothing.
  std::vector<std::vector<NodeId>> staging_;
  Xoshiro256 query_rng_;
};

}  // namespace unisamp
