#include "core/sharded_service.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/bounded_queue.hpp"

namespace unisamp {

namespace {

// Query-RNG derivation tag, far outside any realistic shard index so the
// per-shard seeds derive_seed(seed, s) can never collide with it.
constexpr std::uint64_t kQuerySeedTag = 0x5AD5'0000'0000'0001ULL;

// Upper bound on the per-queue ring (slots; the pipeline allocates
// producers x shards queues).  Keeps a caller-supplied huge capacity from
// exhausting memory — and from overflowing the queue's power-of-two
// round-up before the allocation would even be attempted.
constexpr std::size_t kMaxQueueCapacity = std::size_t{1} << 20;

}  // namespace

ShardedSamplingService::ShardedSamplingService(ShardedServiceConfig config)
    : config_(std::move(config)),
      query_rng_(derive_seed(config_.base.seed, kQuerySeedTag)) {
  if (config_.shard_count == 0)
    throw std::invalid_argument("shard_count must be positive");
  if (config_.producer_threads == 0)
    throw std::invalid_argument("producer_threads must be positive");
  if (config_.consumer_batch == 0)
    throw std::invalid_argument("consumer_batch must be positive");
  if (config_.queue_capacity == 0 ||
      config_.queue_capacity > kMaxQueueCapacity)
    throw std::invalid_argument("queue_capacity out of range");
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
  const std::size_t producers =
      std::min<std::size_t>(config_.producer_threads, ids.size());
  // One producer or one shard makes the pipeline pure overhead; the serial
  // path is the same function of the input by the determinism contract.
  if (producers <= 1 || shards_.size() == 1) {
    ingest_serial(ids);
    return;
  }
  ingest_pipeline(ids, producers);
}

void ShardedSamplingService::ingest_serial(std::span<const NodeId> ids) {
  if (ids.empty()) return;
  if (shards_.size() == 1) {
    shards_[0]->on_receive_stream(ids);
    return;
  }
  for (auto& bucket : staging_) bucket.clear();
  for (const NodeId id : ids)
    staging_[shard_of(id, shards_.size())].push_back(id);
  std::exception_ptr first_error;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (staging_[s].empty()) continue;
    try {
      shards_[s]->on_receive_stream(staging_[s]);
    } catch (...) {
      // Mirror the pipeline: a throwing shard must not starve later shards
      // of their sub-streams; the first failure (in shard order) surfaces
      // once every shard has been fed.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ShardedSamplingService::ingest_pipeline(std::span<const NodeId> ids,
                                             std::size_t producers) {
  const std::size_t shard_count = shards_.size();
  using Queue = BoundedSpscQueue<NodeId>;
  std::vector<std::unique_ptr<Queue>> queues;
  queues.reserve(producers * shard_count);
  for (std::size_t i = 0; i < producers * shard_count; ++i)
    queues.push_back(std::make_unique<Queue>(config_.queue_capacity));
  const auto queue_at = [&](std::size_t p, std::size_t s) -> Queue& {
    return *queues[p * shard_count + s];
  };

  // Contiguous chunking, remainder spread over the first chunks: producer
  // p's slice sizes differ by at most one and concatenate to the input.
  const auto chunk_of = [&](std::size_t p) {
    const std::size_t base = ids.size() / producers;
    const std::size_t extra = ids.size() % producers;
    const std::size_t begin = p * base + std::min(p, extra);
    return ids.subspan(begin, base + (p < extra ? 1 : 0));
  };

  const auto produce = [&](std::size_t p) noexcept {
    for (const NodeId id : chunk_of(p)) {
      Queue& q = queue_at(p, shard_of(id, shard_count));
      while (!q.try_push(id)) std::this_thread::yield();
    }
    for (std::size_t s = 0; s < shard_count; ++s) queue_at(p, s).close();
  };

  std::vector<std::exception_ptr> shard_error(shard_count);
  const auto consume = [&](std::size_t s) noexcept {
    std::vector<NodeId>& batch = staging_[s];  // consumer-owned, reused
    batch.clear();
    bool failed = false;
    const auto flush = [&]() noexcept {
      if (batch.empty() || failed) return;
      try {
        shards_[s]->on_receive_stream(batch);
      } catch (...) {
        // Record the failure but KEEP draining (discarding from here on):
        // a consumer that stops popping leaves its producers blocked on
        // full queues forever.
        shard_error[s] = std::current_exception();
        failed = true;
      }
      batch.clear();
    };
    const auto take = [&](NodeId id) noexcept {
      if (failed) return;
      batch.push_back(id);
      if (batch.size() >= config_.consumer_batch) flush();
    };
    // Producer chunks are contiguous slices of the input and each queue is
    // FIFO, so draining the queues in producer index order reassembles
    // this shard's sub-stream in arrival order — the canonical
    // serialization the determinism contract promises.
    for (std::size_t p = 0; p < producers; ++p) {
      Queue& q = queue_at(p, s);
      NodeId id;
      for (;;) {
        while (q.try_pop(id)) take(id);
        if (q.closed()) {
          // close() is ordered after the final push; one more drain pass
          // after observing it cannot miss an element.
          while (q.try_pop(id)) take(id);
          break;
        }
        std::this_thread::yield();
      }
    }
    flush();
  };

  // Spawn order is load-bearing for the thread-exhaustion fallbacks below:
  // all consumers strictly before any producer, so a consumer-spawn failure
  // implies no id has entered any queue, and a producer-spawn failure
  // leaves every shard with a running consumer.
  std::vector<std::thread> pool;
  pool.reserve(shard_count + producers - 1);
  bool consumers_spawned = false;
  std::size_t spawned_producers = 0;
  try {
    for (std::size_t s = 0; s < shard_count; ++s) pool.emplace_back(consume, s);
    consumers_spawned = true;
    for (std::size_t p = 0; p + 1 < producers; ++p) {
      pool.emplace_back(produce, p);
      ++spawned_producers;
    }
  } catch (const std::system_error&) {
    // Thread exhaustion — degrade, below.
  }
  if (!consumers_spawned) {
    // A consumer failed to spawn.  No producer thread exists yet, so every
    // queue is still empty: closing them lets the consumers already running
    // exit empty-handed, then the serial path does all the work —
    // bit-identical by the determinism contract.
    for (auto& q : queues) q->close();
    for (std::thread& t : pool) t.join();
    ingest_serial(ids);
    return;
  }
  // Every shard has a consumer.  The calling thread covers every producer
  // chunk that did not get its own thread — in the common case just the
  // last one, after a producer-spawn failure all the remaining ones, in
  // index order (each produce() closes its own queues, so consumers
  // advance past producer p as soon as its chunk is done).  Output is the
  // same canonical serialization either way; spawned producers keep their
  // already-pushed ids, nothing is re-produced.
  for (std::size_t p = spawned_producers; p < producers; ++p) produce(p);
  for (std::thread& t : pool) t.join();
  for (std::size_t s = 0; s < shard_count; ++s)
    if (shard_error[s]) std::rethrow_exception(shard_error[s]);
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
