// TraceReplaySource (src/stream/trace_replay.*): config validation, the
// deterministic production-workload generators (diurnal / flash crowd /
// drifting hot set), the writer-to-replay round trip on both trace_io
// formats, and the engine workload leg's does-not-perturb-gossip contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "stream/trace_io.hpp"
#include "stream/trace_replay.hpp"
#include "util/rng.hpp"

namespace unisamp {
namespace {

TraceReplayConfig generator_config(TraceReplayConfig::Kind kind) {
  TraceReplayConfig config;
  config.kind = kind;
  config.ids_per_round = 100;
  config.seed = 11;
  config.domain = 200;
  return config;
}

// A temp path unique to this test process; removed by the caller.
std::string temp_trace_path(const char* tag) {
  return ::testing::TempDir() + "trace_replay_" + tag + ".trace";
}

TEST(TraceReplayConfigTest, ValidateRejectsBadConfigs) {
  TraceReplayConfig config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  EXPECT_NO_THROW(validate(config));
  config.ids_per_round = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  config.domain = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.domain = 200;
  config.zipf_alpha = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.zipf_alpha = 1.0;
  config.period = 1;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.period = 64;
  config.amplitude = 1.5;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kFlashCrowd);
  config.flash_multiplier = 0.5;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_multiplier = 4.0;
  config.flash_share = -0.1;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_share = 0.7;
  config.flash_hotset = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config.flash_hotset = config.domain + 1;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = generator_config(TraceReplayConfig::Kind::kDriftingHotSet);
  config.drift_every = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);

  config = TraceReplayConfig{};
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  EXPECT_THROW(validate(config), std::invalid_argument);  // empty path
  config.path = "whatever.trace";
  EXPECT_NO_THROW(validate(config));

  EXPECT_EQ(to_string(TraceReplayConfig::Kind::kFlashCrowd), "flash-crowd");
}

TEST(TraceReplayGeneratorTest, GeneratorsAreDeterministicAndOffset) {
  for (const auto kind : {TraceReplayConfig::Kind::kDiurnal,
                          TraceReplayConfig::Kind::kFlashCrowd,
                          TraceReplayConfig::Kind::kDriftingHotSet}) {
    const TraceReplayConfig config = generator_config(kind);
    TraceReplaySource a(config);
    TraceReplaySource b(config);
    Stream sa, sb;
    for (int r = 0; r < 40; ++r) {
      a.next_round(sa);
      b.next_round(sb);
    }
    ASSERT_EQ(sa, sb) << to_string(kind);
    for (const NodeId id : sa) {
      ASSERT_GE(id, config.id_offset) << to_string(kind);
      ASSERT_LT(id, config.id_offset + config.domain) << to_string(kind);
    }
    EXPECT_EQ(a.rounds_generated(), 40u);
    EXPECT_EQ(a.total_ids(), sa.size());
  }
}

TEST(TraceReplayGeneratorTest, DiurnalVolumeFollowsTheTriangleWave) {
  TraceReplayConfig config = generator_config(TraceReplayConfig::Kind::kDiurnal);
  config.period = 8;
  config.amplitude = 0.5;
  TraceReplaySource source(config);
  // dist(r) = min(r % 8, 8 - r % 8); volume = llround(100 * (0.5 + 0.5 *
  // dist / 4)): trough 50 at the period boundary, peak 100 mid-period.
  const std::size_t expected[] = {50, 63, 75, 88, 100, 88, 75, 63,
                                  50, 63, 75, 88, 100, 88, 75, 63};
  for (std::size_t r = 0; r < std::size(expected); ++r) {
    Stream round;
    EXPECT_EQ(source.next_round(round), expected[r]) << "round " << r;
  }
}

TEST(TraceReplayGeneratorTest, FlashCrowdSpikesVolumeOntoTheHotSet) {
  TraceReplayConfig config =
      generator_config(TraceReplayConfig::Kind::kFlashCrowd);
  config.flash_start = 4;
  config.flash_rounds = 3;
  config.flash_multiplier = 4.0;
  config.flash_hotset = 8;
  config.flash_share = 0.7;
  TraceReplaySource source(config);
  for (std::size_t r = 0; r < 10; ++r) {
    Stream round;
    const std::size_t volume = source.next_round(round);
    const bool in_flash = r >= 4 && r < 7;
    EXPECT_EQ(volume, in_flash ? 400u : 100u) << "round " << r;
    if (in_flash) {
      // At share 0.7 the hot set must dominate the round (the Zipf tail
      // also lands there occasionally, so well over half).
      std::size_t hot = 0;
      for (const NodeId id : round)
        hot += id < config.id_offset + config.flash_hotset ? 1 : 0;
      EXPECT_GT(hot, round.size() / 2) << "round " << r;
    }
  }
}

TEST(TraceReplayGeneratorTest, DriftShiftsTheWholeDistribution) {
  // A drifting source is the zero-drift source rotated by the epoch shift:
  // the underlying RNG draws are identical, the shift is applied after.
  TraceReplayConfig drifting =
      generator_config(TraceReplayConfig::Kind::kDriftingHotSet);
  drifting.drift_every = 4;
  drifting.drift_step = 37;
  TraceReplayConfig frozen = drifting;
  frozen.drift_step = 0;
  TraceReplaySource moving(drifting);
  TraceReplaySource still(frozen);
  for (std::size_t r = 0; r < 20; ++r) {
    Stream moved, base;
    moving.next_round(moved);
    still.next_round(base);
    ASSERT_EQ(moved.size(), base.size());
    const NodeId shift = (r / 4) * 37 % drifting.domain;
    for (std::size_t i = 0; i < moved.size(); ++i)
      ASSERT_EQ(moved[i] - drifting.id_offset,
                (base[i] - drifting.id_offset + shift) % drifting.domain)
          << "round " << r << " item " << i;
  }
}

TEST(TraceReplayFileTest, ReplayReturnsTheWrittenStreamOnBothFormats) {
  // 7 ids per round divides neither the trace length nor any run, so
  // rounds end mid-run, runs longer than 7 span rounds, and the last round
  // is partial.
  constexpr std::size_t kPerRound = 7;
  Stream trace;
  Xoshiro256 rng(99);
  for (int i = 0; i < 500; ++i) {
    const NodeId id = rng.next_below(25);
    std::size_t run = 1 + rng.next_below(15);
    if (run % kPerRound == 0) ++run;
    for (std::size_t k = 0; k < run; ++k) trace.push_back(id);
  }
  if (trace.size() % kPerRound == 0) trace.push_back(0);
  const std::string text_path = temp_trace_path("text");
  const std::string binary_path = temp_trace_path("binary");
  save_stream_text(trace, text_path);
  save_stream_binary(trace, binary_path);

  for (const std::string& path : {text_path, binary_path}) {
    TraceReplayConfig config;
    config.kind = TraceReplayConfig::Kind::kTraceFile;
    config.path = path;
    config.ids_per_round = kPerRound;
    config.id_offset = kHonestTraceIdBase;
    TraceReplaySource source(config);
    Stream replayed;
    for (;;) {
      const std::size_t remaining = trace.size() - replayed.size();
      const std::size_t got = source.next_round(replayed);
      ASSERT_EQ(got, std::min(kPerRound, remaining)) << path;
      if (got == 0) break;
    }
    EXPECT_EQ(source.total_ids(), trace.size()) << path;
    // The replay is the written stream, offset into the honest id space.
    ASSERT_EQ(replayed.size(), trace.size()) << path;
    for (std::size_t i = 0; i < trace.size(); ++i)
      ASSERT_EQ(replayed[i], trace[i] + kHonestTraceIdBase) << path;
  }
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
}

TEST(TraceReplayFileTest, MissingFileThrowsAtConstruction) {
  TraceReplayConfig config;
  config.kind = TraceReplayConfig::Kind::kTraceFile;
  config.path = temp_trace_path("missing");
  EXPECT_THROW(TraceReplaySource{config}, std::runtime_error);
}

}  // namespace
}  // namespace unisamp

namespace unisamp::scenario {
namespace {

ScenarioSpec workload_base_spec() {
  ScenarioSpec spec;
  spec.name = "workload-test";
  spec.topology.kind = TopologySpec::Kind::kComplete;
  spec.topology.nodes = 20;
  spec.gossip.fanout = 2;
  spec.gossip.seed = 7;
  spec.gossip.byzantine_count = 4;
  spec.gossip.flood_factor = 6;
  spec.gossip.forged_id_count = 4;
  spec.gossip.record_inputs = true;
  spec.sampler.memory_size = 8;
  spec.sampler.sketch_width = 6;
  spec.sampler.sketch_depth = 4;
  spec.victim = 19;
  spec.schedule = {{AttackKind::kStaticFlood, 30, 0.0, 0}};
  return spec;
}

TEST(WorkloadSpecTest, ValidateRejectsCollidingIdOffset) {
  ScenarioSpec spec = workload_base_spec();
  spec.workload = TraceReplayConfig{};
  EXPECT_NO_THROW(validate(spec));
  spec.workload->id_offset = 1000;  // inside the node/forged id space
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.workload->id_offset = kHonestTraceIdBase;
  spec.workload->domain = 0;  // per-kind invariants are also enforced here
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(WorkloadEngineTest, WorkloadDoesNotPerturbTheGossipEvolution) {
  // The honest feed goes straight into the samplers; deliveries, recorded
  // input streams, and every network-RNG draw must be unchanged by it.
  ScenarioSpec plain = workload_base_spec();
  ScenarioSpec loaded = workload_base_spec();
  loaded.workload = TraceReplayConfig{};
  loaded.workload->ids_per_round = 64;
  ScenarioEngine plain_engine(plain);
  ScenarioEngine loaded_engine(loaded);
  const ScenarioRunReport plain_report = plain_engine.run();
  const ScenarioRunReport loaded_report = loaded_engine.run();

  EXPECT_EQ(plain_report.delivered, loaded_report.delivered);
  EXPECT_EQ(loaded_report.trace_ids_delivered,
            loaded_report.points.back().honest_trace_ids);
  EXPECT_GT(loaded_report.trace_ids_delivered, 0u);
  for (std::size_t i = 4; i < 20; ++i)
    ASSERT_EQ(plain_engine.network().input_stream(i),
              loaded_engine.network().input_stream(i))
        << "node " << i;

  // The honest ids DID reach the samplers: they dilute the malicious share
  // of the output streams.
  ASSERT_EQ(plain_report.points.size(), loaded_report.points.size());
  EXPECT_LT(loaded_report.points.back().output_pollution,
            plain_report.points.back().output_pollution);
}

TEST(WorkloadEngineTest, WorkloadRunsAreDeterministic) {
  ScenarioSpec spec = workload_base_spec();
  spec.workload = TraceReplayConfig{};
  spec.workload->kind = TraceReplayConfig::Kind::kFlashCrowd;
  spec.workload->flash_start = 10;
  spec.workload->flash_rounds = 5;
  spec.measure_every = 10;
  ScenarioEngine a(spec);
  ScenarioEngine b(spec);
  const ScenarioRunReport ra = a.run();
  const ScenarioRunReport rb = b.run();
  EXPECT_EQ(ra.trace_ids_delivered, rb.trace_ids_delivered);
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].output_pollution, rb.points[i].output_pollution);
    EXPECT_EQ(ra.points[i].honest_trace_ids, rb.points[i].honest_trace_ids);
  }
}

TEST(WorkloadEngineTest, DefenseSeesTheVictimsWorkloadShare) {
  // An all-quiescent schedule: the victim's workload share (10 ids/round
  // here, 400 over the run — more than a full detector window) must flow
  // through the detector too, closing strictly more windows than gossip
  // input alone.
  ScenarioSpec bare_spec = workload_base_spec();
  bare_spec.schedule = {{AttackKind::kQuiescent, 40, 0.0, 0}};
  bare_spec.defense = DefenseSpec{};
  bare_spec.defense->detector.window = 300;
  ScenarioSpec fed_spec = bare_spec;
  fed_spec.workload = TraceReplayConfig{};
  fed_spec.workload->ids_per_round = 160;  // 10 per instrumented node
  ScenarioEngine bare(bare_spec);
  ScenarioEngine fed(fed_spec);
  const ScenarioRunReport bare_report = bare.run();
  const ScenarioRunReport fed_report = fed.run();
  EXPECT_GT(fed_report.detector_windows.size(),
            bare_report.detector_windows.size());
}

}  // namespace
}  // namespace unisamp::scenario
