// Scenario subsystem (src/scenario): spec validation, topology building,
// and the engine's contracts — determinism, the zero-intensity schedule's
// bit-identity with a plain static-flood network, measurement cadence,
// phase bookkeeping, churn integration, and the growing Sybil bill under
// identity churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"

namespace unisamp::scenario {
namespace {

ScenarioSpec base_spec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.topology.kind = TopologySpec::Kind::kComplete;
  spec.topology.nodes = 20;
  spec.gossip.fanout = 2;
  spec.gossip.seed = 7;
  spec.gossip.byzantine_count = 4;
  spec.gossip.flood_factor = 6;
  spec.gossip.forged_id_count = 4;
  // Small sketch so min_sigma leaves zero within a few rounds (the default
  // k=10/s=5 sketch never fills all counters over this 20-id population
  // and the sampler's memory would stay frozen — see knowledge_free_sampler.hpp).
  spec.sampler.memory_size = 8;
  spec.sampler.sketch_width = 6;
  spec.sampler.sketch_depth = 4;
  spec.victim = 19;
  spec.schedule = {{AttackKind::kStaticFlood, 30, 0.0, 0}};
  return spec;
}

TEST(ScenarioSpecTest, ValidateRejectsBadSpecs) {
  ScenarioSpec spec = base_spec();
  spec.victim = 2;  // byzantine
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.schedule.clear();
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.schedule[0].rounds = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.schedule[0].intensity = 1.5;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.gossip.forged_id_count = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  EXPECT_NO_THROW(validate(base_spec()));
}

TEST(ScenarioSpecTest, ValidateRejectsBadStructuredTopologies) {
  // Torus: empty dims, a zero/one dimension, product mismatch, overflow.
  ScenarioSpec spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kTorus;
  spec.topology.nodes = 20;
  EXPECT_THROW(validate(spec), std::invalid_argument);  // dims empty
  spec.topology.torus_dims = {4, 0};
  EXPECT_THROW(validate(spec), std::invalid_argument);  // zero dim
  spec.topology.torus_dims = {4, 1, 5};
  EXPECT_THROW(validate(spec), std::invalid_argument);  // dim < 2
  spec.topology.torus_dims = {4, 6};
  EXPECT_THROW(validate(spec), std::invalid_argument);  // 24 != nodes 20
  spec.topology.torus_dims = {1u << 20, 1u << 20, 1u << 20, 1u << 20};
  EXPECT_THROW(validate(spec), std::invalid_argument);  // product overflows
  spec.topology.torus_dims = {4, 5};
  EXPECT_NO_THROW(validate(spec));

  // Dragonfly: degenerate shape, node-count mismatch, overflow.
  spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kDragonfly;
  spec.topology.dragonfly_routers = 1;  // local clique needs >= 2
  spec.topology.dragonfly_globals = 1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.dragonfly_routers = 2;
  spec.topology.dragonfly_globals = 0;  // no global links: disconnected
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.dragonfly_globals = 1;
  spec.topology.dragonfly_terminals = 1;
  spec.topology.nodes = 20;  // (2*1+1) * 2 * 2 = 12 != 20
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.nodes = 12;
  spec.victim = 11;
  EXPECT_NO_THROW(validate(spec));
  spec.topology.dragonfly_routers = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(validate(spec), std::invalid_argument);  // overflow

  // Fat-tree: odd / zero k, node-count mismatch.
  spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kFatTree;
  spec.topology.fat_tree_k = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.fat_tree_k = 3;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.fat_tree_k = 4;
  spec.topology.nodes = 20;  // derived size is 36
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.topology.nodes = 36;
  spec.victim = 35;
  EXPECT_NO_THROW(validate(spec));
}

TEST(ScenarioSpecTest, ValidateRejectsTorusPastTheLabelSpace) {
  // 65536 * 65537 nodes fit a size_t but not the uint32 adjacency labels:
  // Topology::torus rejects it, so validate must too, even when `nodes`
  // agrees with the product.
  ScenarioSpec spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kTorus;
  spec.topology.torus_dims = {65536, 65537};
  spec.topology.nodes = std::size_t{65536} * 65537;
  spec.victim = spec.topology.nodes - 1;
  EXPECT_THROW(validate(spec), std::invalid_argument);
}

TEST(ScenarioEngineTest, RejectsOverlayProbabilitiesOutsideUnitInterval) {
  // Erdos-Renyi p and small-world beta outside [0, 1] (and NaN) are
  // rejected by the overlay builders when the engine builds the world.
  ScenarioSpec spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kErdosRenyi;
  spec.topology.edge_probability = 1.5;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.topology.edge_probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.topology.edge_probability = 0.4;
  EXPECT_NO_THROW(ScenarioEngine{spec});

  spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kSmallWorld;
  spec.topology.beta = 1.5;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.topology.beta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.topology.beta = 0.2;
  EXPECT_NO_THROW(ScenarioEngine{spec});
}

TEST(ScenarioEngineTest, RejectsPlacementWithoutStructuredTopology) {
  ScenarioSpec spec = base_spec();  // complete topology: unstructured
  spec.placement.kind = PlacementSpec::Kind::kSingleGroup;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.placement.kind = PlacementSpec::Kind::kScattered;
  EXPECT_THROW(ScenarioEngine{spec}, std::invalid_argument);
  spec.placement.kind = PlacementSpec::Kind::kDefault;
  EXPECT_NO_THROW(ScenarioEngine{spec});

  // The same placement is fine once the topology is structured.
  spec.topology.kind = TopologySpec::Kind::kTorus;
  spec.topology.torus_dims = {4, 5};
  spec.topology.nodes = 20;
  spec.placement.kind = PlacementSpec::Kind::kScattered;
  EXPECT_NO_THROW(ScenarioEngine{spec});
  EXPECT_EQ(to_string(PlacementSpec::Kind::kSingleRow), "single-row");
}

TEST(ScenarioEngineTest, RejectsDisconnectedCorrectNodesAtT0) {
  // Regression for the documented erdos_renyi gap: the family is "NOT
  // guaranteed connected", and the engine must refuse to run an experiment
  // whose correct subgraph violates the paper's T0 weak-connectivity
  // assumption instead of silently producing figures from a void premise.
  ScenarioSpec spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kErdosRenyi;
  spec.topology.edge_probability = 0.01;  // far below the ln(n)/n threshold
  EXPECT_THROW(
      {
        try {
          ScenarioEngine engine(spec);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find("not weakly connected"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);

  // A comfortably supercritical probability builds and runs.
  spec.topology.edge_probability = 0.5;
  ScenarioEngine engine(spec);
  EXPECT_GT(engine.run().delivered, 0u);
}

TEST(ScenarioEngineTest, PlacementRelabelsByzantinesIntoTheTargetGroup) {
  // A dragonfly spec with single-group placement: the engine's world must
  // still follow GossipConfig's first-b-nodes-are-byzantine convention,
  // with the relabelled byzantine positions drawn from the target group.
  ScenarioSpec spec = base_spec();
  spec.topology.kind = TopologySpec::Kind::kDragonfly;
  spec.topology.dragonfly_routers = 4;
  spec.topology.dragonfly_globals = 2;
  spec.topology.dragonfly_terminals = 3;
  spec.topology.nodes = 144;
  spec.placement.kind = PlacementSpec::Kind::kSingleGroup;
  spec.placement.target = 0;
  spec.gossip.byzantine_count = 12;
  spec.victim = 12;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  EXPECT_GT(report.delivered, 0u);
  ASSERT_FALSE(report.points.empty());
  EXPECT_GT(report.points.back().output_pollution, 0.0);
}

TEST(ScenarioSpecTest, ValidateRejectsBadTimingSpecs) {
  // Rounds kind with event-only knobs set is a latent mistake, not a no-op.
  ScenarioSpec spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->inbox_capacity = 8;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->latency = TimingSpec::LatencyKind::kUniform;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  // Event kind: negative / NaN latencies rejected.
  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kUniform;
  spec.timing->latency_base = -0.5;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.timing->latency_base = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(validate(spec), std::invalid_argument);
  // Infinite or huge latencies too: lowered to ticks they would wrap the
  // event queue's time.  10^6 rounds is the largest admitted.
  for (double TimingSpec::*knob : {&TimingSpec::latency_base,
                                   &TimingSpec::latency_spread,
                                   &TimingSpec::far_extra}) {
    spec = base_spec();
    spec.timing = TimingSpec{};
    spec.timing->kind = TimingSpec::Kind::kEvent;
    spec.timing->latency = TimingSpec::LatencyKind::kBimodal;
    for (const double bad : {std::numeric_limits<double>::infinity(), 1e300}) {
      (*spec.timing).*knob = bad;
      EXPECT_THROW(validate(spec), std::invalid_argument);
    }
    (*spec.timing).*knob = 1e6;
    EXPECT_NO_THROW(validate(spec));
  }

  // far_* knobs demand the bimodal distribution.
  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kUniform;
  spec.timing->far_fraction = 0.2;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kBimodal;
  spec.timing->far_fraction = 1.5;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  // Synchronized event mode with latency knobs set: pick a distribution.
  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency_base = 0.5;
  EXPECT_THROW(validate(spec), std::invalid_argument);

  // A complete event-mode section validates.
  spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kBimodal;
  spec.timing->latency_base = 0.25;
  spec.timing->latency_spread = 0.5;
  spec.timing->far_fraction = 0.1;
  spec.timing->far_extra = 2.0;
  spec.timing->inbox_capacity = 16;
  spec.timing->bandwidth_per_round = 10;
  EXPECT_NO_THROW(validate(spec));

  // Observer stride: zero rejected; victim must stay instrumented.
  spec = base_spec();
  spec.gossip.observer_stride = 0;
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.gossip.observer_stride = 7;  // (19 - 4) % 7 != 0: victim unobserved
  EXPECT_THROW(validate(spec), std::invalid_argument);
  spec.gossip.observer_stride = 5;  // (19 - 4) % 5 == 0
  EXPECT_NO_THROW(validate(spec));
}

TEST(ScenarioSpecTest, TimingSpecLowersRoundUnitsToTicks) {
  TimingSpec timing;
  EXPECT_EQ(timing.build(7).kind, TimingModel::Kind::kRounds);

  timing.kind = TimingSpec::Kind::kEvent;
  timing.latency = TimingSpec::LatencyKind::kBimodal;
  timing.latency_base = 0.25;
  timing.latency_spread = 1.5;
  timing.far_fraction = 0.125;
  timing.far_extra = 2.0;
  timing.inbox_capacity = 16;
  timing.bandwidth_per_round = 10;
  const TimingModel model = timing.build(7);
  EXPECT_EQ(model.kind, TimingModel::Kind::kEvent);
  EXPECT_EQ(model.latency.kind, LinkLatencyModel::Kind::kBimodal);
  EXPECT_EQ(model.latency.base, kTicksPerRound / 4);
  EXPECT_EQ(model.latency.spread, kTicksPerRound + kTicksPerRound / 2);
  EXPECT_DOUBLE_EQ(model.latency.far_fraction, 0.125);
  EXPECT_EQ(model.latency.far_extra, 2 * kTicksPerRound);
  EXPECT_EQ(model.inbox_capacity, 16u);
  EXPECT_EQ(model.bandwidth_per_tick, 10u);
  // The latency hash seed is derived, never the raw master seed.
  EXPECT_NE(model.latency.seed, 7u);
}

TEST(ScenarioEngineTest, SynchronizedEventTimingMatchesRoundsReport) {
  // An event-mode section with zero latency and no bounds is semantically
  // the rounds config; the engine must produce the identical report.
  ScenarioSpec rounds_spec = base_spec();
  ScenarioSpec event_spec = base_spec();
  event_spec.timing = TimingSpec{};
  event_spec.timing->kind = TimingSpec::Kind::kEvent;
  ScenarioEngine rounds_engine(rounds_spec);
  ScenarioEngine event_engine(event_spec);
  const ScenarioRunReport rounds_report = rounds_engine.run();
  const ScenarioRunReport event_report = event_engine.run();
  EXPECT_EQ(rounds_report.delivered, event_report.delivered);
  ASSERT_EQ(rounds_report.points.size(), event_report.points.size());
  for (std::size_t i = 0; i < rounds_report.points.size(); ++i) {
    EXPECT_EQ(rounds_report.points[i].output_pollution,
              event_report.points[i].output_pollution);
    EXPECT_EQ(rounds_report.points[i].memory_pollution,
              event_report.points[i].memory_pollution);
  }
  EXPECT_EQ(rounds_report.dropped_overflow, 0u);
  EXPECT_EQ(event_report.dropped_overflow, 0u);
  EXPECT_EQ(event_report.in_flight_at_end, 0u);
}

TEST(ScenarioEngineTest, BoundedEventTimingReportsDropAccounting) {
  ScenarioSpec spec = base_spec();
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kUniform;
  spec.timing->latency_base = 0.5;
  spec.timing->latency_spread = 1.0;
  spec.timing->inbox_capacity = 2;
  spec.timing->bandwidth_per_round = 1;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  // A 20-node flood into capacity-2 inboxes drained 1 id/round must drop.
  EXPECT_GT(report.dropped_overflow, 0u);
  EXPECT_GT(report.peak_inbox_backlog, 0u);
  EXPECT_LT(report.delivered, ScenarioEngine(base_spec()).run().delivered);
}

TEST(ScenarioSpecTest, TopologyKindsBuild) {
  TopologySpec topo;
  topo.nodes = 16;
  topo.degree = 2;
  for (const TopologySpec::Kind kind :
       {TopologySpec::Kind::kComplete, TopologySpec::Kind::kRing,
        TopologySpec::Kind::kRandomRegular, TopologySpec::Kind::kSmallWorld}) {
    topo.kind = kind;
    const Topology t = topo.build(3);
    EXPECT_EQ(t.size(), 16u) << to_string(kind);
    EXPECT_GT(t.edge_count(), 0u) << to_string(kind);
  }
  EXPECT_EQ(to_string(TopologySpec::Kind::kSmallWorld), "small-world");
  EXPECT_EQ(to_string(AttackKind::kSybilChurn), "sybil-churn");
}

TEST(ScenarioEngineTest, ZeroIntensityScheduleMatchesPlainStaticFlood) {
  const ScenarioSpec spec = base_spec();
  ScenarioEngine engine(spec);
  engine.run();

  GossipNetwork plain(Topology::complete(20), spec.gossip, spec.sampler);
  SimDriver plain_driver(plain, TimingModel::rounds());
  plain_driver.run_ticks(30);
  for (std::size_t i = 4; i < 20; ++i)
    EXPECT_EQ(engine.network().service(i).output_stream(),
              plain.service(i).output_stream())
        << "node " << i;
  EXPECT_EQ(engine.network().delivered(), plain.delivered());
}

TEST(ScenarioEngineTest, RunIsDeterministicAndOneShot) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kStaticFlood, 10, 0.0, 0},
                   {AttackKind::kEstimateProbing, 10, 0.7, 0},
                   {AttackKind::kEclipseFlood, 10, 0.7, 0}};
  ScenarioEngine a(spec);
  ScenarioEngine b(spec);
  const ScenarioRunReport ra = a.run();
  const ScenarioRunReport rb = b.run();
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].round, rb.points[i].round);
    EXPECT_EQ(ra.points[i].output_pollution, rb.points[i].output_pollution);
    EXPECT_EQ(ra.points[i].memory_pollution, rb.points[i].memory_pollution);
  }
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_THROW(a.run(), std::logic_error);
}

TEST(ScenarioEngineTest, MeasurementCadenceAndPhaseIndices) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kQuiescent, 10, 0.0, 0},
                   {AttackKind::kStaticFlood, 10, 0.0, 0}};
  spec.measure_every = 4;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  // Cadence rows at rounds 4, 8, 12, 16, 20 plus phase ends at 10 and 20
  // (20 is both — recorded once).
  ASSERT_EQ(report.points.size(), 6u);
  EXPECT_EQ(report.points[0].round, 4u);
  EXPECT_EQ(report.points[0].phase, 0u);
  EXPECT_EQ(report.points[2].round, 10u);  // phase-end row
  EXPECT_EQ(report.points[2].phase, 0u);
  EXPECT_EQ(report.points.back().round, 20u);
  EXPECT_EQ(report.points.back().phase, 1u);

  // Quiescent phase: no forged ids anywhere in the correct outputs.
  EXPECT_EQ(report.points[2].victim_output_pollution, 0.0);
  // Static flood phase: pollution appears.
  EXPECT_GT(report.points.back().output_pollution, 0.0);
}

TEST(ScenarioEngineTest, DefaultCadenceIsOneRowPerPhase) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kStaticFlood, 5, 0.0, 0},
                   {AttackKind::kEclipseFlood, 5, 0.9, 0}};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  ASSERT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.points[0].round, 5u);
  EXPECT_EQ(report.points[1].round, 10u);
}

TEST(ScenarioEngineTest, SybilChurnGrowsTheDistinctMaliciousBill) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kStaticFlood, 10, 0.0, 0},
                   {AttackKind::kSybilChurn, 20, 0.0, /*rotate_every=*/5}};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  ASSERT_EQ(report.points.size(), 2u);
  // Baseline bill: 4 byzantine ids + 4 static forged ids.
  EXPECT_EQ(report.points[0].distinct_malicious, 8.0);
  // The churn phase mints a fresh pool of 4 at rounds 5, 10 and 15 of the
  // phase on top of the initial one: 8 + 4 * 4 = 24.
  EXPECT_EQ(report.points[1].distinct_malicious, 24.0);
}

TEST(ScenarioEngineTest, RepeatedSybilChurnPhasesMintFreshIdentities) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kSybilChurn, 10, 0.0, /*rotate_every=*/5},
                   {AttackKind::kSybilChurn, 10, 0.0, /*rotate_every=*/5}};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  ASSERT_EQ(report.points.size(), 2u);
  // Each phase mints pool(4) + one rotation at its round 5 = 8 fresh ids;
  // the second phase must NOT re-mint the first phase's (warm) identities.
  EXPECT_EQ(report.points[0].distinct_malicious, 8.0 + 8.0);
  EXPECT_EQ(report.points[1].distinct_malicious, 8.0 + 16.0);
}

TEST(ScenarioEngineTest, ThrowingRoundClearsTheInstalledAdversary) {
  ScenarioSpec spec = base_spec();
  // An omniscient sampler has probabilities only for real ids; the first
  // forged id delivered makes the service throw mid-phase.
  spec.sampler = ServiceConfig{};
  spec.sampler.strategy = Strategy::kOmniscient;
  spec.sampler.known_probabilities.assign(20, 1.0 / 20.0);
  ScenarioEngine engine(spec);
  EXPECT_THROW(engine.run(), std::exception);
  // The phase-local adversary died on unwind; the network must not keep a
  // dangling pointer to it.
  EXPECT_EQ(engine.network().adversary(), nullptr);
}

TEST(ScenarioEngineTest, ChurnPhaseRunsBeforeTheSchedule) {
  ScenarioSpec spec = base_spec();
  ChurnConfig churn;
  churn.pre_t0_rounds = 20;
  churn.seed = 9;
  spec.churn = churn;
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  EXPECT_GT(report.churn_events, 0u);
  // Post-T0 rounds still counted from zero in the measurement rows.
  ASSERT_FALSE(report.points.empty());
  EXPECT_EQ(report.points.back().round, 30u);
  // Churn rounds also delivered ids.
  EXPECT_GT(engine.network().rounds_run(), 30u);
}

}  // namespace
}  // namespace unisamp::scenario
