// Adaptive defense loop: sketch/sampler key rotation (rekey), the
// DefenseSpec neutrality contract (a defense section that never fires is
// bit-identical to no defense section at all), detection-triggered rekeys
// with cooldown/budget gating, and the colluding (eclipse + Sybil churn)
// attack phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "adversary/adaptive.hpp"
#include "core/knowledge_free_sampler.hpp"
#include "core/sampling_service.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sketch/count_min.hpp"
#include "sketch/decaying.hpp"
#include "stream/generators.hpp"

namespace unisamp {
namespace {

// ---------------------------------------------------------------------------
// Key rotation: sketches
// ---------------------------------------------------------------------------

TEST(SketchRekeyTest, RekeyMatchesFreshSketchBitIdentically) {
  const auto params = CountMinParams::from_dimensions(10, 5, 3);
  const auto fresh_params = CountMinParams::from_dimensions(10, 5, 99);
  CountMinSketch rotated(params);
  for (NodeId id = 0; id < 200; ++id) rotated.update(id, id + 1);
  rotated.rekey(fresh_params);

  // Counters zeroed, and the new coefficients are exactly the fresh ones.
  EXPECT_EQ(rotated.total_count(), 0u);
  EXPECT_EQ(rotated.min_counter(), 0u);
  CountMinSketch fresh(fresh_params);
  for (NodeId id = 0; id < 200; ++id) {
    rotated.update(id);
    fresh.update(id);
  }
  for (NodeId id = 0; id < 200; ++id)
    ASSERT_EQ(rotated.estimate(id), fresh.estimate(id)) << "id " << id;
}

TEST(SketchRekeyTest, RekeyRejectsDimensionChanges) {
  CountMinSketch sketch(CountMinParams::from_dimensions(10, 5, 3));
  EXPECT_THROW(sketch.rekey(CountMinParams::from_dimensions(11, 5, 3)),
               std::invalid_argument);
  EXPECT_THROW(sketch.rekey(CountMinParams::from_dimensions(10, 4, 3)),
               std::invalid_argument);
  ConservativeCountMinSketch cons(CountMinParams::from_dimensions(10, 5, 3));
  EXPECT_THROW(cons.rekey(CountMinParams::from_dimensions(9, 5, 3)),
               std::invalid_argument);
  EXPECT_NO_THROW(cons.rekey(CountMinParams::from_dimensions(10, 5, 77)));
}

TEST(SketchRekeyTest, DecayingRekeyRestartsDecayPhaseKeepsHistory) {
  const auto params = CountMinParams::from_dimensions(8, 4, 5);
  DecayingCountMinSketch sketch(params, /*half_life=*/100);
  for (int i = 0; i < 250; ++i) sketch.update(7);
  EXPECT_EQ(sketch.decay_count(), 2u);

  // 90 updates into the third half-life, rotate keys: the decay phase
  // restarts (the fresh counters carry no old mass to age out) while the
  // cumulative decay history survives.
  for (int i = 0; i < 40; ++i) sketch.update(7);
  sketch.rekey(CountMinParams::from_dimensions(8, 4, 55));
  EXPECT_EQ(sketch.decay_count(), 2u);
  EXPECT_EQ(sketch.estimate(7), 0u);
  for (int i = 0; i < 99; ++i) sketch.update(7);
  EXPECT_EQ(sketch.decay_count(), 2u);  // 99 < half_life since the rekey
  sketch.update(7);
  EXPECT_EQ(sketch.decay_count(), 3u);
}

// ---------------------------------------------------------------------------
// Key rotation: samplers and services
// ---------------------------------------------------------------------------

TEST(SamplerRekeyTest, RekeyPreservesGammaAndOwnRng) {
  const auto params = CountMinParams::from_dimensions(10, 5, 21);
  WeightedStreamGenerator gen(zipf_weights(60, 1.5), 5);
  const Stream input = gen.take(20000);

  KnowledgeFreeSampler rotated(8, params, 31);
  KnowledgeFreeSampler control(8, params, 31);
  Stream sink;
  rotated.process_stream(input, sink);
  sink.clear();
  control.process_stream(input, sink);

  ASSERT_TRUE(rotated.rekey(1234));
  // Gamma untouched by the rotation...
  EXPECT_EQ(rotated.memory(), control.memory());
  // ...and so is the sampler's own RNG: sample() draws stay in lockstep
  // with the un-rekeyed control.
  for (int i = 0; i < 64; ++i)
    ASSERT_EQ(rotated.sample(), control.sample()) << "draw " << i;
  // The sketch itself is cold again: admissions freeze until min_sigma
  // leaves zero (knowledge_free_sampler.hpp header contract).
  EXPECT_EQ(rotated.sketch().min_counter(), 0u);
  EXPECT_EQ(rotated.sketch().estimate(input.front()), 0u);
}

TEST(SamplerRekeyTest, ServiceRekeyReportsKeyedOracleOrNot) {
  ServiceConfig config;
  config.memory_size = 8;
  config.sketch_width = 10;
  config.sketch_depth = 5;
  config.seed = 7;

  config.strategy = Strategy::kKnowledgeFree;
  EXPECT_TRUE(SamplingService(config).rekey_sampler(42));
  config.strategy = Strategy::kConservativeSketch;
  EXPECT_TRUE(SamplingService(config).rekey_sampler(42));
  config.strategy = Strategy::kDecayingSketch;
  config.decay_half_life = 500;
  EXPECT_TRUE(SamplingService(config).rekey_sampler(42));

  // The omniscient baseline has no keyed oracle to rotate.
  config.strategy = Strategy::kOmniscient;
  config.known_probabilities = zipf_weights(40, 1.5);
  EXPECT_FALSE(SamplingService(config).rekey_sampler(42));
}

TEST(SamplerRekeyTest, DecayingStrategyNeedsHalfLife) {
  ServiceConfig config;
  config.strategy = Strategy::kDecayingSketch;
  config.memory_size = 8;
  EXPECT_THROW(SamplingService{config}, std::invalid_argument);
  config.decay_half_life = 100;
  EXPECT_NO_THROW(SamplingService{config});
  EXPECT_EQ(to_string(Strategy::kDecayingSketch), "knowledge-free/decaying");
}

}  // namespace
}  // namespace unisamp

namespace unisamp::scenario {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.name = "defense-test";
  spec.topology.kind = TopologySpec::Kind::kComplete;
  spec.topology.nodes = 20;
  spec.gossip.fanout = 2;
  spec.gossip.seed = 7;
  spec.gossip.byzantine_count = 4;
  spec.gossip.flood_factor = 6;
  spec.gossip.forged_id_count = 4;
  spec.sampler.memory_size = 8;
  spec.sampler.sketch_width = 6;
  spec.sampler.sketch_depth = 4;
  spec.victim = 19;
  spec.schedule = {{AttackKind::kStaticFlood, 30, 0.0, 0}};
  return spec;
}

void expect_identical_runs(const ScenarioSpec& a, const ScenarioSpec& b) {
  ScenarioEngine ea(a);
  ScenarioEngine eb(b);
  const ScenarioRunReport ra = ea.run();
  const ScenarioRunReport rb = eb.run();
  EXPECT_EQ(ra.delivered, rb.delivered);
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].output_pollution, rb.points[i].output_pollution);
    EXPECT_EQ(ra.points[i].victim_output_pollution,
              rb.points[i].victim_output_pollution);
    EXPECT_EQ(ra.points[i].memory_pollution, rb.points[i].memory_pollution);
  }
  for (std::size_t i = a.gossip.byzantine_count; i < ea.network().size(); ++i)
    ASSERT_EQ(ea.network().service(i).output_stream(),
              eb.network().service(i).output_stream())
        << "node " << i;
}

TEST(DefenseEngineTest, RejectsBadDetectorConfigs) {
  // The detector's own rules fire when the engine is built.
  ScenarioSpec spec = base_spec();
  spec.defense = DefenseSpec{};
  EXPECT_NO_THROW(ScenarioEngine{spec});

  spec.defense->detector.window = 0;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);

  spec = base_spec();
  spec.defense = DefenseSpec{};
  spec.defense->detector.heavy_capacity = 0;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);

  spec = base_spec();
  spec.defense = DefenseSpec{};
  spec.defense->detector.peak_factor =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.defense->detector.peak_factor = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.defense->detector.peak_factor = 8.0;
  spec.defense->detector.flood_factor = 0.0;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
}

TEST(DefenseEngineTest, RejectsBadHllPrecisionAtConstruction) {
  // An HLL precision outside [4, 18] must fail when the engine is built,
  // not on the first round of run().
  ScenarioSpec spec = base_spec();
  spec.defense = DefenseSpec{};
  spec.defense->detector.hll_precision = 2;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
}

TEST(DefenseSpecTest, ValidateRejectsBadDefenseSections) {
  // Rekey knobs on a detect-only policy: latent mistake, not a no-op.
  ScenarioSpec spec = base_spec();
  spec.defense = DefenseSpec{};
  EXPECT_NO_THROW(validate(spec));
  spec.defense->rekey_cooldown = 5;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.defense->rekey_cooldown = 0;
  spec.defense->max_rekeys = 1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.defense->rekey = DefenseSpec::RekeyPolicy::kOnDetection;
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(to_string(DefenseSpec::RekeyPolicy::kOnDetection),
            "on-detection");
}

TEST(DefenseEngineTest, NeutralDefenseIsBitIdenticalToNoDefense) {
  // Detect-only policy: the detector observes the victim's recorded input
  // (forced record_inputs, no RNG effect) and nothing else happens.
  ScenarioSpec defended = base_spec();
  defended.defense = DefenseSpec{};
  expect_identical_runs(base_spec(), defended);
}

TEST(DefenseEngineTest, UnreachableThresholdsAreBitIdenticalToNoDefense) {
  // Armed rekey policy, but thresholds no window can cross: still neutral.
  ScenarioSpec defended = base_spec();
  defended.defense = DefenseSpec{};
  defended.defense->rekey = DefenseSpec::RekeyPolicy::kOnDetection;
  defended.defense->detector.window = 200;
  defended.defense->detector.peak_factor = 1e18;
  defended.defense->detector.flood_factor = 1e18;
  ScenarioEngine probe(defended);
  const ScenarioRunReport report = probe.run();
  EXPECT_GT(report.detector_windows.size(), 0u);  // windows DID close
  EXPECT_TRUE(report.detection_rounds.empty());
  EXPECT_TRUE(report.rekey_rounds.empty());
  EXPECT_EQ(report.points.back().detections, 0u);
  EXPECT_EQ(report.points.back().rekeys, 0u);
  expect_identical_runs(base_spec(), defended);
}

TEST(DefenseEngineTest, QuiescentTrafficRaisesNoAlarmAtDefaultThresholds) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kQuiescent, 40, 0.0, 0}};
  spec.defense = DefenseSpec{};
  spec.defense->rekey = DefenseSpec::RekeyPolicy::kOnDetection;
  spec.defense->detector.window = 200;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  EXPECT_GT(report.detector_windows.size(), 0u);
  EXPECT_TRUE(report.detection_rounds.empty());
  EXPECT_TRUE(report.rekey_rounds.empty());
}

// A schedule whose flood phase reliably trips the peak detector: a calm
// baseline phase, then a heavy flood (forged ids get ~2/3 of the victim's
// traffic, each far above the fair share).
ScenarioSpec firing_spec() {
  ScenarioSpec spec = base_spec();
  spec.gossip.flood_factor = 12;
  spec.schedule = {{AttackKind::kQuiescent, 15, 0.0, 0},
                   {AttackKind::kStaticFlood, 45, 0.0, 0}};
  spec.measure_every = 5;
  spec.defense = DefenseSpec{};
  spec.defense->rekey = DefenseSpec::RekeyPolicy::kOnDetection;
  spec.defense->detector.window = 256;
  spec.defense->detector.peak_factor = 2.0;
  return spec;
}

TEST(DefenseEngineTest, FloodTripsDetectionAndRekeyAfterTheQuietPhase) {
  ScenarioEngine engine(firing_spec());
  const ScenarioRunReport report = engine.run();
  ASSERT_FALSE(report.detection_rounds.empty());
  ASSERT_FALSE(report.rekey_rounds.empty());
  // No alarm before the flood phase begins at round 15.
  EXPECT_GT(report.detection_rounds.front(), 15u);
  // A rekey fires only on an alarmed round, at most once per round.
  for (std::size_t i = 0; i < report.rekey_rounds.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(report.rekey_rounds[i], report.rekey_rounds[i - 1]);
    }
    bool alarmed = false;
    for (const std::size_t r : report.detection_rounds)
      alarmed |= r == report.rekey_rounds[i];
    EXPECT_TRUE(alarmed) << "rekey at round " << report.rekey_rounds[i];
  }
  // The cumulative per-row counters mirror the report vectors.
  std::size_t alarmed_windows = 0;
  for (const WindowReport& window : report.detector_windows)
    alarmed_windows += window.signal != AttackSignal::kNone ? 1 : 0;
  EXPECT_EQ(report.points.back().detections, alarmed_windows);
  EXPECT_EQ(report.points.back().rekeys, report.rekey_rounds.size());
}

TEST(DefenseEngineTest, CooldownAndBudgetGateRekeys) {
  ScenarioSpec spec = firing_spec();
  spec.defense->rekey_cooldown = 10;
  ScenarioEngine cooled(spec);
  const ScenarioRunReport cooled_report = cooled.run();
  ASSERT_FALSE(cooled_report.rekey_rounds.empty());
  for (std::size_t i = 1; i < cooled_report.rekey_rounds.size(); ++i)
    EXPECT_GT(cooled_report.rekey_rounds[i],
              cooled_report.rekey_rounds[i - 1] + 10)
        << "rekey " << i;

  spec = firing_spec();
  spec.defense->max_rekeys = 1;
  ScenarioEngine budgeted(spec);
  const ScenarioRunReport budget_report = budgeted.run();
  EXPECT_EQ(budget_report.rekey_rounds.size(), 1u);
  // Detection keeps reporting even after the budget is spent.
  EXPECT_GT(budget_report.detection_rounds.size(), 1u);
}

TEST(DefenseEngineTest, DefenseLoopIsDeterministic) {
  ScenarioEngine a(firing_spec());
  ScenarioEngine b(firing_spec());
  const ScenarioRunReport ra = a.run();
  const ScenarioRunReport rb = b.run();
  EXPECT_EQ(ra.detection_rounds, rb.detection_rounds);
  EXPECT_EQ(ra.rekey_rounds, rb.rekey_rounds);
  EXPECT_EQ(ra.delivered, rb.delivered);
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].output_pollution, rb.points[i].output_pollution);
    EXPECT_EQ(ra.points[i].memory_pollution, rb.points[i].memory_pollution);
    EXPECT_EQ(ra.points[i].rekeys, rb.points[i].rekeys);
  }
}

TEST(DefenseEngineTest, RekeyWorksMidScheduleWithDecayingStrategy) {
  ScenarioSpec spec = firing_spec();
  spec.sampler.strategy = Strategy::kDecayingSketch;
  spec.sampler.decay_half_life = 300;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  EXPECT_FALSE(report.rekey_rounds.empty());
  EXPECT_GT(report.delivered, 0u);
}

// ---------------------------------------------------------------------------
// Colluding phase
// ---------------------------------------------------------------------------

TEST(ColludingTest, ValidateRequiresPoolAndTwoByzantines) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kColluding, 20, 0.5, 5}};
  EXPECT_NO_THROW(validate(spec));
  EXPECT_EQ(to_string(AttackKind::kColluding), "colluding");

  spec.gossip.forged_id_count = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.schedule = {{AttackKind::kColluding, 20, 0.5, 5}};
  spec.gossip.byzantine_count = 1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(ColludingTest, AdversaryUnionsBothLegsBills) {
  ColludingConfig config;
  config.eclipse = EclipseConfig{5, 4, 0.5};
  config.churn = SybilChurnConfig{2, 3, 4, 1000};
  ColludingAdversary adversary({100, 101}, config);
  // Bill at T0: the eclipse pool plus the churn leg's initial mint.
  const auto bill = adversary.malicious_ids();
  ASSERT_EQ(bill.size(), 4u);
  EXPECT_EQ(bill[0], 100u);
  EXPECT_EQ(bill[1], 101u);
  EXPECT_EQ(bill[2], 1000u);
  EXPECT_EQ(bill[3], 1001u);
}

TEST(ColludingTest, ColludingPhaseGrowsBillAndPollutesVictim) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kColluding, 30, 0.5, /*rotate_every=*/5}};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  ASSERT_EQ(report.points.size(), 1u);
  // Baseline bill 8 (4 byzantine + 4 forged) + churn mints: initial pool
  // of 4 plus rotations at phase rounds 5..25 (five of them) = 8 + 24.
  EXPECT_EQ(report.points[0].distinct_malicious, 32.0);
  EXPECT_GT(report.points[0].victim_output_pollution, 0.0);
  EXPECT_GT(report.points[0].output_pollution, 0.0);

  // Deterministic, like every other phase kind.
  ScenarioEngine again(spec);
  EXPECT_EQ(again.run().points[0].output_pollution,
            report.points[0].output_pollution);
}

TEST(ColludingTest, LaterChurnPhaseMintsAboveColludingPhase) {
  // The colluding phase's churn leg must reserve its mint range exactly
  // like a plain churn phase, so a following kSybilChurn starts fresh.
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kColluding, 10, 0.5, /*rotate_every=*/5},
                   {AttackKind::kSybilChurn, 10, 0.0, /*rotate_every=*/5}};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  ASSERT_EQ(report.points.size(), 2u);
  // Colluding phase: 8 baseline + pool 4 + one rotation (round 5) = 16.
  EXPECT_EQ(report.points[0].distinct_malicious, 16.0);
  // Churn phase re-mints nothing warm: + pool 4 + one rotation = 24.
  EXPECT_EQ(report.points[1].distinct_malicious, 24.0);
}

}  // namespace
}  // namespace unisamp::scenario
