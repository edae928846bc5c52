#include "core/sharded_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parallel.hpp"

namespace unisamp {

namespace {

// Query-RNG derivation tag, far outside any realistic shard index so the
// per-shard seeds derive_seed(seed, s) can never collide with it.
constexpr std::uint64_t kQuerySeedTag = 0x5AD5'0000'0000'0001ULL;

}  // namespace

ShardedSamplingService::ShardedSamplingService(ShardedServiceConfig config)
    : config_(std::move(config)),
      query_rng_(derive_seed(config_.base.seed, kQuerySeedTag)) {
  if (config_.shard_count == 0)
    throw std::invalid_argument("shard_count must be positive");
  shards_.reserve(config_.shard_count);
  for (std::size_t s = 0; s < config_.shard_count; ++s) {
    ServiceConfig shard_cfg = config_.base;
    shard_cfg.seed = derive_seed(config_.base.seed, s);
    shards_.push_back(std::make_unique<SamplingService>(std::move(shard_cfg)));
  }
  staging_.resize(config_.shard_count);
}

void ShardedSamplingService::ingest(std::span<const NodeId> ids) {
  if (ids.empty()) return;
  if (shards_.size() == 1) {
    shards_[0]->on_receive_stream(ids);
    return;
  }
  for (auto& bucket : staging_) bucket.clear();
  for (const NodeId id : ids)
    staging_[shard_of(id, shards_.size())].push_back(id);
  // Index s touches only shard s and its bucket.  A throwing shard does not
  // starve the others: every index runs, and parallel_for_index rethrows
  // the lowest failing index — the first failure in shard order.
  parallel_for_index(shards_.size(), [this](std::size_t s) {
    if (!staging_[s].empty()) shards_[s]->on_receive_stream(staging_[s]);
  });
}

std::optional<NodeId> ShardedSamplingService::sample() {
  // Shard-order reduction of the memory sizes, then one query-RNG draw
  // picks a shard with probability |Gamma_s| / sum |Gamma| — a uniform id
  // over the union once each shard's own draw is uniform over its Gamma.
  std::vector<std::uint64_t> sizes(shards_.size());
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    sizes[s] = shards_[s]->sampler().memory().size();
    total += sizes[s];
  }
  if (total == 0) return std::nullopt;
  std::uint64_t pick = query_rng_.next_below(total);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (pick < sizes[s]) return shards_[s]->sample();
    pick -= sizes[s];
  }
  return std::nullopt;  // unreachable: pick < total = sum(sizes)
}

std::uint64_t ShardedSamplingService::processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->processed();
  return total;
}

FrequencyHistogram ShardedSamplingService::merged_histogram() const {
  FrequencyHistogram merged;
  for (const auto& shard : shards_)
    for (const auto& [id, count] : shard->output_histogram().raw())
      merged.add(id, count);
  return merged;
}

Stream ShardedSamplingService::merged_output_stream() const {
  Stream merged;
  for (const auto& shard : shards_) {
    const Stream& out = shard->output_stream();
    merged.insert(merged.end(), out.begin(), out.end());
  }
  return merged;
}

std::uint64_t ShardedSamplingService::state_checksum() const {
  std::uint64_t acc = kChecksumSeed;
  std::vector<std::pair<NodeId, std::uint64_t>> entries;
  for (const auto& shard : shards_) {
    acc = checksum_fold(acc, shard->processed());
    entries.assign(shard->output_histogram().raw().begin(),
                   shard->output_histogram().raw().end());
    std::sort(entries.begin(), entries.end());
    for (const auto& [id, count] : entries) {
      acc = checksum_fold(acc, id);
      acc = checksum_fold(acc, count);
    }
    for (const NodeId id : shard->output_stream())
      acc = checksum_fold(acc, id);
  }
  return acc;
}

}  // namespace unisamp
