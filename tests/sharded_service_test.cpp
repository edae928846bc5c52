// The determinism contract of ShardedSamplingService, tested
// differentially: for any shard count S, ingest() must be bit-identical to
// the canonical serialization (CanonicalOracle below: S plain
// SamplingServices fed their shard_of sub-streams one after another) for
// every worker thread count; and with S = 1 the whole service must
// collapse to a plain SamplingService seeded with derive_seed(base.seed, 0).
#include "core/sharded_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/sampling_service.hpp"
#include "stream/generators.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

Stream biased_stream(std::size_t n, std::size_t m, std::uint64_t seed) {
  WeightedStreamGenerator gen(zipf_weights(n, 1.2), seed);
  return gen.take(m);
}

ShardedServiceConfig config_for(std::size_t shards, bool record = true) {
  ShardedServiceConfig config;
  config.base.strategy = Strategy::kKnowledgeFree;
  config.base.memory_size = 8;  // small c so evictions (and coins) happen
  config.base.sketch_width = 10;
  config.base.sketch_depth = 5;
  config.base.seed = 123;
  config.base.record_output = record;
  config.shard_count = shards;
  return config;
}

/// Restores automatic thread resolution even if a test fails mid-way.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_trial_threads(0); }
};

/// The canonical serialization, kept outside the library as the reference:
/// S plain SamplingServices seeded derive_seed(base.seed, s), the input
/// partitioned in arrival order with shard_of, each shard fed its
/// sub-stream serially in shard order.  A throwing shard stops there, the
/// later shards are still fed, and the first failure in shard order is
/// rethrown at the end.
class CanonicalOracle {
 public:
  explicit CanonicalOracle(const ShardedServiceConfig& config) {
    for (std::size_t s = 0; s < config.shard_count; ++s) {
      ServiceConfig shard_cfg = config.base;
      shard_cfg.seed = derive_seed(config.base.seed, s);
      shards_.push_back(std::make_unique<SamplingService>(shard_cfg));
    }
  }

  void ingest(std::span<const NodeId> ids) {
    std::vector<Stream> sub_streams(shards_.size());
    for (const NodeId id : ids)
      sub_streams[ShardedSamplingService::shard_of(id, shards_.size())]
          .push_back(id);
    std::exception_ptr first_error;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      try {
        shards_[s]->on_receive_stream(sub_streams[s]);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  const SamplingService& shard(std::size_t s) const { return *shards_[s]; }

 private:
  std::vector<std::unique_ptr<SamplingService>> shards_;
};

void expect_matches(const CanonicalOracle& oracle,
                    const ShardedSamplingService& sharded) {
  std::uint64_t processed = 0;
  for (std::size_t s = 0; s < sharded.shard_count(); ++s) {
    SCOPED_TRACE(::testing::Message() << "shard " << s);
    EXPECT_EQ(sharded.shard(s).processed(), oracle.shard(s).processed());
    EXPECT_EQ(sharded.shard(s).output_stream(),
              oracle.shard(s).output_stream());
    EXPECT_EQ(sharded.shard(s).output_histogram(),
              oracle.shard(s).output_histogram());
    processed += oracle.shard(s).processed();
  }
  EXPECT_EQ(sharded.processed(), processed);
}

void expect_identical(const ShardedSamplingService& a,
                      const ShardedSamplingService& b) {
  EXPECT_EQ(a.processed(), b.processed());
  EXPECT_EQ(a.merged_output_stream(), b.merged_output_stream());
  EXPECT_EQ(a.merged_histogram(), b.merged_histogram());
  EXPECT_EQ(a.state_checksum(), b.state_checksum());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    EXPECT_EQ(a.shard(s).processed(), b.shard(s).processed()) << "shard " << s;
    EXPECT_EQ(a.shard(s).output_stream(), b.shard(s).output_stream())
        << "shard " << s;
  }
}

TEST(ShardedServiceTest, ShardOfIsStableAndInRange) {
  for (std::size_t shards : {1u, 2u, 5u, 16u}) {
    for (NodeId id = 0; id < 500; ++id) {
      const std::size_t s = ShardedSamplingService::shard_of(id, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardedSamplingService::shard_of(id, shards));
    }
  }
}

TEST(ShardedServiceTest, RejectsDegenerateConfig) {
  EXPECT_THROW(ShardedSamplingService{config_for(0)}, std::invalid_argument);
}

// With one shard the service is the paper's unmodified sampling service:
// every observable must match a plain SamplingService configured with the
// derived shard seed.
TEST(ShardedServiceTest, SingleShardMatchesPlainService) {
  const Stream input = biased_stream(200, 30000, 7);

  ShardedSamplingService sharded(config_for(1));
  ServiceConfig plain_cfg = config_for(1).base;
  plain_cfg.seed = derive_seed(plain_cfg.seed, 0);
  SamplingService plain(plain_cfg);

  sharded.ingest(input);
  plain.on_receive_stream(input);

  EXPECT_EQ(sharded.processed(), plain.processed());
  EXPECT_EQ(sharded.merged_output_stream(), plain.output_stream());
  EXPECT_EQ(sharded.merged_histogram(), plain.output_histogram());
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(sharded.sample(), plain.sample()) << "draw " << i;
}

// The tentpole property: ingest() is a pure function of (config, input) —
// bit-identical to the canonical serialization for every (S, worker thread
// count) combination, including thread counts above the shard count.
TEST(ShardedServiceTest, IngestMatchesOracleAcrossShardAndThreadMatrix) {
  ThreadCountGuard guard;
  const Stream input = biased_stream(300, 40000, 11);

  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    CanonicalOracle oracle(config_for(shards));
    oracle.ingest(input);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      set_trial_threads(threads);
      ShardedSamplingService sharded(config_for(shards));
      sharded.ingest(input);
      expect_matches(oracle, sharded);
    }
  }
}

// Splitting the input across many ingest() calls must equal one call: the
// service carries no cross-call batching state.
TEST(ShardedServiceTest, ChunkedIngestMatchesSingleIngest) {
  const Stream input = biased_stream(100, 15000, 17);

  ShardedSamplingService whole(config_for(4));
  whole.ingest(input);

  ShardedSamplingService chunked(config_for(4));
  const std::size_t sizes[] = {1, 3, 17, 4096, 1, 257};
  std::size_t pos = 0, which = 0;
  while (pos < input.size()) {
    const std::size_t len =
        std::min(sizes[which++ % std::size(sizes)], input.size() - pos);
    chunked.ingest(std::span(input).subspan(pos, len));
    pos += len;
  }
  expect_identical(whole, chunked);
}

// Identically configured services must agree on the sample() sequence —
// the query RNG and per-shard RNGs are part of the deterministic state.
TEST(ShardedServiceTest, SampleSequenceIsDeterministic) {
  const Stream input = biased_stream(120, 10000, 19);
  ShardedSamplingService a(config_for(5));
  ShardedSamplingService b(config_for(5));
  EXPECT_EQ(a.sample(), std::nullopt);  // nothing ingested yet
  a.ingest(input);
  b.ingest(input);
  for (int i = 0; i < 64; ++i) {
    const auto draw = a.sample();
    ASSERT_EQ(draw, b.sample()) << "draw " << i;
    ASSERT_TRUE(draw.has_value());
  }
}

// Exception contract: a shard whose sampler throws (omniscient shard fed an
// id outside the known population) stops with partial state, every other
// shard completes its full sub-stream, the exception surfaces to the
// caller — and the service reaches exactly the oracle's state, at every
// thread count (one worker included: it must not stop at the failing shard).
TEST(ShardedServiceTest, ThrowingShardMatchesOracleAndOthersComplete) {
  ThreadCountGuard guard;
  const std::size_t n = 50;
  ShardedServiceConfig cfg = config_for(4);
  cfg.base.strategy = Strategy::kOmniscient;
  cfg.base.known_probabilities = zipf_weights(n, 1.2);

  // Poison id: outside [0, n), so its shard's OmniscientSampler throws.
  const NodeId poison = 99999;
  const std::size_t poisoned_shard =
      ShardedSamplingService::shard_of(poison, 4);
  Stream input = biased_stream(n, 8000, 23);
  input.insert(input.begin() + input.size() / 2, poison);

  CanonicalOracle oracle(cfg);
  EXPECT_THROW(oracle.ingest(input), std::out_of_range);
  // Every healthy shard absorbed its complete sub-stream.
  std::uint64_t healthy = 0;
  for (std::size_t s = 0; s < 4; ++s)
    if (s != poisoned_shard) healthy += oracle.shard(s).processed();
  std::uint64_t expected_healthy = 0;
  for (const NodeId id : input)
    if (id != poison && ShardedSamplingService::shard_of(id, 4) != poisoned_shard)
      ++expected_healthy;
  EXPECT_EQ(healthy, expected_healthy);
  // The poisoned shard stopped exactly at the poison: it processed the ids
  // of its sub-stream that arrived before it, and nothing after.
  std::uint64_t before_poison = 0;
  for (const NodeId id : input) {
    if (id == poison) break;
    if (ShardedSamplingService::shard_of(id, 4) == poisoned_shard)
      ++before_poison;
  }
  EXPECT_EQ(oracle.shard(poisoned_shard).processed(), before_poison);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_trial_threads(threads);
    ShardedSamplingService sharded(cfg);
    EXPECT_THROW(sharded.ingest(input), std::out_of_range);
    expect_matches(oracle, sharded);
  }
}

// Pinned state checksums for the canonical serialization, captured on the
// row-major sketch storage before the interleaved-layout rewrite
// (sketch/layout.hpp).  The physical layout and the hashing kernel are
// invisible to every observable — if any of these values ever moves, the
// sharded-ingest output stream is no longer the one the committed
// bench/figure artefacts were recorded with.  Config: paper sketch shape
// k=10, s=17, c=8, seed 123, Zipf(1.2) over 300 ids, 40000 items.
TEST(ShardedServiceTest, StateChecksumsArePinnedAcrossLayoutChanges) {
  const Stream input = biased_stream(300, 40000, 11);
  const struct {
    std::size_t shards;
    std::uint64_t checksum;
  } pins[] = {
      {1, 2130211030448579346ULL},
      {2, 8304578099753804186ULL},
      {4, 12824188894164575063ULL},
      {7, 12573361263187322588ULL},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(::testing::Message() << "shards=" << pin.shards);
    auto cfg = config_for(pin.shards);
    cfg.base.sketch_depth = 17;  // the paper's s, as the benches run it
    ShardedSamplingService service(cfg);
    service.ingest(input);
    EXPECT_EQ(service.state_checksum(), pin.checksum);
  }
}

// record_output=false (the bench configuration) must not change histogram
// accounting.
TEST(ShardedServiceTest, UnrecordedOutputStillFeedsHistograms) {
  const Stream input = biased_stream(100, 12000, 29);
  ShardedSamplingService recorded(config_for(4, true));
  ShardedSamplingService unrecorded(config_for(4, false));
  recorded.ingest(input);
  unrecorded.ingest(input);
  EXPECT_TRUE(unrecorded.merged_output_stream().empty());
  EXPECT_EQ(recorded.merged_histogram(), unrecorded.merged_histogram());
  EXPECT_EQ(unrecorded.processed(), input.size());
}

// ingest() from inside run_trials bodies nests one parallel_for_index in
// another: every trial's service must still reach the top-level state.
TEST(ShardedServiceTest, IngestInsideRunTrialsMatchesTopLevel) {
  ThreadCountGuard guard;
  set_trial_threads(4);
  const Stream input = biased_stream(200, 20000, 31);
  ShardedSamplingService top_level(config_for(4));
  top_level.ingest(input);

  const auto nested = run_trials(4, [&](std::size_t) {
    auto service = std::make_unique<ShardedSamplingService>(config_for(4));
    service->ingest(input);
    return service;
  });
  for (std::size_t t = 0; t < nested.size(); ++t) {
    SCOPED_TRACE(::testing::Message() << "trial " << t);
    expect_identical(top_level, *nested[t]);
  }
}

}  // namespace
}  // namespace unisamp
