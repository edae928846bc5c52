// Bit-identity of the batched ingest path: on_receive_stream (and the
// NodeSampler::process_stream overrides underneath it) must produce exactly
// the per-item on_receive results — same output stream, same histogram,
// same RNG consumption — for every strategy and any batch partitioning.
// The batched path exists purely to hoist virtual dispatch and histogram
// bookkeeping out of the per-item loop; this suite is the contract that it
// never drifts semantically.
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge_free_sampler.hpp"
#include "core/sampling_service.hpp"
#include "stream/generators.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

Stream biased_stream(std::size_t n, std::size_t m, std::uint64_t seed) {
  WeightedStreamGenerator gen(zipf_weights(n, 1.5), seed);
  return gen.take(m);
}

ServiceConfig config_for(Strategy strategy, std::size_t n, bool record) {
  ServiceConfig config;
  config.strategy = strategy;
  config.memory_size = 8;  // small c so evictions (and their coins) happen
  config.sketch_width = 10;
  config.sketch_depth = 5;
  config.seed = 77;
  config.record_output = record;
  if (strategy == Strategy::kOmniscient)
    config.known_probabilities = zipf_weights(n, 1.5);
  if (strategy == Strategy::kDecayingSketch)
    config.decay_half_life = 500;  // several decays inside the test streams
  return config;
}

class ServiceBatchTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(ServiceBatchTest, StreamIngestMatchesPerItemIngest) {
  const std::size_t n = 60;
  const Stream input = biased_stream(n, 20000, 5);

  SamplingService per_item(config_for(GetParam(), n, true));
  SamplingService batched(config_for(GetParam(), n, true));

  for (const NodeId id : input) per_item.on_receive(id);
  // Irregular batch sizes (including 1 and a large chunk) so every
  // partitioning-sensitive path is crossed.
  const std::size_t sizes[] = {1, 3, 17, 4096, 1, 257};
  std::size_t pos = 0, which = 0;
  while (pos < input.size()) {
    const std::size_t len =
        std::min(sizes[which++ % std::size(sizes)], input.size() - pos);
    batched.on_receive_stream(std::span(input).subspan(pos, len));
    pos += len;
  }

  EXPECT_EQ(per_item.processed(), batched.processed());
  EXPECT_EQ(per_item.output_stream(), batched.output_stream());
  EXPECT_EQ(per_item.output_histogram(), batched.output_histogram());
  // Post-ingest RNG states must agree too: sample() draws the same ids.
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(per_item.sample(), batched.sample()) << "sample " << i;
}

TEST_P(ServiceBatchTest, UnrecordedOutputStillFeedsHistogram) {
  const std::size_t n = 40;
  const Stream input = biased_stream(n, 8000, 9);

  SamplingService recorded(config_for(GetParam(), n, true));
  SamplingService unrecorded(config_for(GetParam(), n, false));
  recorded.on_receive_stream(input);
  unrecorded.on_receive_stream(input);

  EXPECT_TRUE(unrecorded.output_stream().empty());
  EXPECT_EQ(recorded.output_histogram(), unrecorded.output_histogram());
  EXPECT_EQ(unrecorded.output_histogram().total(), input.size());
}

// Every counter of the strategy's sketch, row-major; empty for omniscient.
std::vector<std::uint64_t> sketch_cells(const NodeSampler& sampler) {
  std::vector<std::uint64_t> cells;
  const auto read = [&cells](const auto& sketch) {
    for (std::size_t r = 0; r < sketch.depth(); ++r)
      for (std::size_t c = 0; c < sketch.width(); ++c)
        cells.push_back(sketch.counter_at(r, c));
  };
  if (const auto* kf = dynamic_cast<const KnowledgeFreeSampler*>(&sampler))
    read(kf->sketch());
  if (const auto* cons =
          dynamic_cast<const ConservativeKnowledgeFreeSampler*>(&sampler))
    read(cons->sketch());
  if (const auto* decay =
          dynamic_cast<const DecayingKnowledgeFreeSampler*>(&sampler))
    read(decay->sketch());
  return cells;
}

TEST_P(ServiceBatchTest, PrefetchChangesNothing) {
  const std::size_t n = 60;
  const Stream input = biased_stream(n, 6000, 13);
  SamplingService plain(config_for(GetParam(), n, true));
  SamplingService warmed(config_for(GetParam(), n, true));
  const NodeSampler& sampler = warmed.sampler();
  const auto warm = [&sampler](std::span<const NodeId> next) {
    sampler.prefetch(next);
    sampler.prefetch({});
  };

  // Empty Gamma, fresh sketch.
  warm(std::span(input).first(40));
  EXPECT_TRUE(sampler.memory().empty());

  const std::size_t chunk = 250;
  for (std::size_t pos = 0; pos < input.size(); pos += chunk) {
    const auto batch = std::span(input).subspan(pos, chunk);
    if (pos == input.size() / 2) {
      // Both re-keyed alike; the fresh key's sketch is warmed too.
      EXPECT_EQ(plain.rekey_sampler(91), warmed.rekey_sampler(91));
      warm(batch);
    }
    warm(batch);
    plain.on_receive_stream(batch);
    warmed.on_receive_stream(batch);
    warm(batch.first(7));
  }

  EXPECT_EQ(plain.processed(), warmed.processed());
  EXPECT_EQ(plain.output_stream(), warmed.output_stream());
  EXPECT_EQ(plain.output_histogram(), warmed.output_histogram());
  EXPECT_EQ(plain.sampler().memory(), sampler.memory());
  EXPECT_EQ(sketch_cells(plain.sampler()), sketch_cells(sampler));
  if (GetParam() != Strategy::kOmniscient) {
    EXPECT_FALSE(sketch_cells(sampler).empty());
  }
  for (int i = 0; i < 32; ++i)
    ASSERT_EQ(plain.sample(), warmed.sample()) << "sample " << i;
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ServiceBatchTest,
                         ::testing::Values(Strategy::kOmniscient,
                                           Strategy::kKnowledgeFree,
                                           Strategy::kConservativeSketch,
                                           Strategy::kDecayingSketch),
                         [](const auto& info) {
                           switch (info.param) {
                             case Strategy::kOmniscient: return "Omniscient";
                             case Strategy::kKnowledgeFree:
                               return "KnowledgeFree";
                             case Strategy::kConservativeSketch:
                               return "Conservative";
                             case Strategy::kDecayingSketch:
                               return "Decaying";
                           }
                           return "Unknown";
                         });

TEST(ProcessStreamTest, RunEqualsPerItemProcessLoop) {
  const Stream input = biased_stream(50, 10000, 3);
  const auto params = CountMinParams::from_dimensions(10, 5, 21);

  KnowledgeFreeSampler a(8, params, 31);
  KnowledgeFreeSampler b(8, params, 31);
  Stream manual;
  for (const NodeId id : input) manual.push_back(a.process(id));
  EXPECT_EQ(manual, b.run(input));
}

TEST(ProcessStreamTest, MidBatchThrowKeepsServiceConsistent) {
  // Same contract as the per-item loop: ids emitted before a sampler throw
  // are fully accounted (output, histogram, processed), the failing id is
  // absent from all three.
  SamplingService service(config_for(Strategy::kOmniscient, 10, true));
  const Stream batch = {1, 2, 99999};  // 99999 outside the known population
  EXPECT_THROW(service.on_receive_stream(batch), std::out_of_range);
  EXPECT_EQ(service.processed(), 2u);
  EXPECT_EQ(service.output_stream().size(), 2u);
  EXPECT_EQ(service.output_histogram().total(), 2u);
}

TEST(ProcessStreamTest, AbortedBatchNeverLeaksIntoLaterBatches) {
  // With record_output=false the batch lands in an internal scratch buffer.
  // A sampler throw mid-batch must leave that scratch EMPTY — if the
  // aborted batch's ids survived until the next on_receive_stream call,
  // they would be double-counted into the next batch's histogram.
  SamplingService service(config_for(Strategy::kOmniscient, 10, false));
  SamplingService reference(config_for(Strategy::kOmniscient, 10, false));

  const Stream poisoned = {1, 2, 99999};  // 99999 outside the population
  EXPECT_THROW(service.on_receive_stream(poisoned), std::out_of_range);
  EXPECT_EQ(service.processed(), 2u);
  EXPECT_EQ(service.output_histogram().total(), 2u);

  // The reference sees the same surviving prefix per-item, then both
  // services ingest an identical healthy batch.
  reference.on_receive(1);
  reference.on_receive(2);
  const Stream healthy = {3, 4, 5, 3};
  service.on_receive_stream(healthy);
  for (const NodeId id : healthy) reference.on_receive(id);

  EXPECT_EQ(service.processed(), reference.processed());
  EXPECT_EQ(service.output_histogram(), reference.output_histogram());
  EXPECT_EQ(service.output_histogram().total(), 2u + healthy.size());

  // Same invariant when the poison batch follows a successful one.
  SamplingService again(config_for(Strategy::kOmniscient, 10, false));
  again.on_receive_stream(healthy);
  EXPECT_THROW(again.on_receive_stream(poisoned), std::out_of_range);
  again.on_receive_stream(healthy);
  EXPECT_EQ(again.processed(), 2 * healthy.size() + 2);
  EXPECT_EQ(again.output_histogram().total(), 2 * healthy.size() + 2);
}

TEST(ProcessStreamTest, AppendsToExistingOutput) {
  const Stream input = biased_stream(30, 500, 4);
  KnowledgeFreeSampler sampler(8, CountMinParams::from_dimensions(10, 5, 2), 3);
  Stream out = {1234567u};
  sampler.process_stream(input, out);
  ASSERT_EQ(out.size(), input.size() + 1);
  EXPECT_EQ(out.front(), 1234567u);
}

}  // namespace
}  // namespace unisamp
