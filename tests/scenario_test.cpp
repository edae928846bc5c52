// Scenario subsystem (src/scenario): spec validation, topology building,
// and the engine's contracts — determinism, the zero-intensity schedule's
// bit-identity with a plain static-flood network, measurement cadence,
// phase bookkeeping, churn integration, and the growing Sybil bill under
// identity churn.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "stream/histogram.hpp"
#include "stream/trace_io.hpp"

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


// ---------------------------------------------------------------------------
// Every MeasurePoint field pinned bit for bit.  The doubles are compared as
// IEEE-754 bit patterns, so any change to how measure() classifies ids or
// sums counts shows here, not only a change in the network's evolution.

struct PinnedPoint {
  std::size_t round, phase;
  std::uint64_t output, victim, memory, distinct;  // double bit patterns
  std::size_t detections, rekeys;
  std::uint64_t honest_trace_ids;
  friend bool operator==(const PinnedPoint&, const PinnedPoint&) = default;
};

std::vector<PinnedPoint> pinned_points(const ScenarioRunReport& report) {
  std::vector<PinnedPoint> rows;
  for (const MeasurePoint& p : report.points)
    rows.push_back({p.round, p.phase,
                    std::bit_cast<std::uint64_t>(p.output_pollution),
                    std::bit_cast<std::uint64_t>(p.victim_output_pollution),
                    std::bit_cast<std::uint64_t>(p.memory_pollution),
                    std::bit_cast<std::uint64_t>(p.distinct_malicious),
                    p.detections, p.rekeys, p.honest_trace_ids});
  return rows;
}

// On a mismatch, prints the actual rows in the initializer form below.
void expect_pinned(const ScenarioRunReport& report,
                   const std::vector<PinnedPoint>& want) {
  const std::vector<PinnedPoint> got = pinned_points(report);
  if (got == want) return;
  std::ostringstream table;
  table << std::hex;
  for (const PinnedPoint& p : got)
    table << "{" << std::dec << p.round << ", " << p.phase << ", " << std::hex
          << "0x" << p.output << ", 0x" << p.victim << ", 0x" << p.memory
          << ", 0x" << p.distinct << ", " << std::dec << p.detections << ", "
          << p.rekeys << ", " << p.honest_trace_ids << "},\n";
  ADD_FAILURE() << "MeasurePoint rows differ; actual rows:\n" << table.str();
}

ScenarioSpec every_attack_kind_spec() {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kQuiescent, 4, 0.0, 0},
                   {AttackKind::kStaticFlood, 4, 0.0, 0},
                   {AttackKind::kEstimateProbing, 4, 0.7, 0},
                   {AttackKind::kEclipseFlood, 4, 0.8, 0},
                   {AttackKind::kSybilChurn, 8, 0.0, /*rotate_every=*/3},
                   {AttackKind::kColluding, 8, 0.6, /*rotate_every=*/3}};
  spec.measure_every = 3;
  spec.defense = DefenseSpec{};
  spec.defense->rekey = DefenseSpec::RekeyPolicy::kOnDetection;
  spec.defense->detector.window = 60;
  spec.defense->detector.peak_factor = 2.0;
  return spec;
}

TEST(ScenarioMeasurePinTest, EveryAttackKindInRounds) {
  ScenarioEngine engine(every_attack_kind_spec());
  expect_pinned(engine.run(), {
      {3, 0, 0x0, 0x0, 0x0, 0x4020000000000000, 1, 1, 0},
      {4, 0, 0x0, 0x0, 0x0, 0x4020000000000000, 1, 1, 0},
      {6, 1, 0x3fb5a1ffdbebfce6, 0x3fc32bfb7d2e3ce6, 0x3fc0000000000000, 0x4020000000000000, 2, 2, 0},
      {8, 1, 0x3fb8ed3bbcf4aec6, 0x3fcd09ef3024ae3c, 0x3fc4000000000000, 0x4020000000000000, 4, 4, 0},
      {9, 2, 0x3fbb9833a701afa5, 0x3fd049b4fa13be31, 0x3fc4000000000000, 0x4020000000000000, 5, 5, 0},
      {12, 2, 0x3fbe75205fb2e22e, 0x3fd0b9d80b269007, 0x3fc4000000000000, 0x4020000000000000, 8, 8, 0},
      {15, 3, 0x3fc0d923d0999636, 0x3fd1be52a04f185d, 0x3fc6000000000000, 0x4020000000000000, 11, 11, 0},
      {16, 3, 0x3fc1510e5d36a83e, 0x3fd21058ee0493c8, 0x3fc6000000000000, 0x4020000000000000, 12, 12, 0},
      {18, 4, 0x3fc1f70ed0539a83, 0x3fd1d04e268024c7, 0x3fc5000000000000, 0x4028000000000000, 13, 13, 0},
      {21, 4, 0x3fc279c350e82935, 0x3fd097b425ed097b, 0x3fc9000000000000, 0x4030000000000000, 16, 16, 0},
      {24, 4, 0x3fc339b0704c0f03, 0x3fcf64ecd38ad9dd, 0x3fca000000000000, 0x4034000000000000, 19, 19, 0},
      {27, 5, 0x3fc4479608428acd, 0x3fcf77c3491dcd48, 0x3fcf000000000000, 0x4038000000000000, 22, 22, 0},
      {30, 5, 0x3fc60b5390e19eee, 0x3fce73de542d8e1d, 0x3fd0000000000000, 0x403c000000000000, 24, 24, 0},
      {32, 5, 0x3fc6aaa761fce6f0, 0x3fcd7ab069e8e8c1, 0x3fcb000000000000, 0x4040000000000000, 26, 26, 0},
  });
}

TEST(ScenarioMeasurePinTest, EveryAttackKindWithChurnAndEventTiming) {
  ScenarioSpec spec = every_attack_kind_spec();
  spec.churn = ChurnConfig{};
  spec.churn->pre_t0_rounds = 6;
  spec.churn->leave_probability = 0.1;
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kBimodal;
  spec.timing->latency_base = 0.25;
  spec.timing->latency_spread = 0.5;
  spec.timing->far_fraction = 0.2;
  spec.timing->far_extra = 1.5;
  spec.timing->inbox_capacity = 24;
  spec.timing->bandwidth_per_round = 12;
  ScenarioEngine engine(spec);
  expect_pinned(engine.run(), {
      {3, 0, 0x3fd83e63affa9328, 0x3fe2c234f72c234f, 0x3fd4800000000000, 0x4020000000000000, 1, 1, 0},
      {4, 0, 0x3fd7c3d5e284f6ad, 0x3fe0ea0ea0ea0ea1, 0x3fd4800000000000, 0x4020000000000000, 1, 1, 0},
      {6, 1, 0x3fd79013a2bb079c, 0x3fddf51b3bea3678, 0x3fd5000000000000, 0x4020000000000000, 1, 1, 0},
      {8, 1, 0x3fd7a17a17a17a18, 0x3fd97dd49c34115b, 0x3fd6000000000000, 0x4020000000000000, 1, 1, 0},
      {9, 2, 0x3fd770e6cdccd6a6, 0x3fd89d89d89d89d9, 0x3fd5800000000000, 0x4020000000000000, 1, 1, 0},
      {12, 2, 0x3fd720194cb076e8, 0x3fd7e75346f0940c, 0x3fd5000000000000, 0x4020000000000000, 1, 1, 0},
      {15, 3, 0x3fd69a60ec4431f0, 0x3fd86562d9faee42, 0x3fd5800000000000, 0x4020000000000000, 2, 2, 0},
      {16, 3, 0x3fd6829ebce690ef, 0x3fd8396ba9de8132, 0x3fd5800000000000, 0x4020000000000000, 2, 2, 0},
      {18, 4, 0x3fd6861f7d6037fb, 0x3fd8787878787878, 0x3fd5800000000000, 0x4028000000000000, 3, 3, 0},
      {21, 4, 0x3fd64bad1b5260b5, 0x3fd9ed5059b184ac, 0x3fd7800000000000, 0x4030000000000000, 3, 3, 0},
      {24, 4, 0x3fd709e29f16731d, 0x3fdc48abc48abc49, 0x3fdc800000000000, 0x4034000000000000, 4, 4, 0},
      {27, 5, 0x3fd78176eb7f1f0c, 0x3fdd39b602f5a441, 0x3fdc800000000000, 0x4038000000000000, 4, 4, 0},
      {30, 5, 0x3fd82b71bc3ba8ce, 0x3fde28359cd116c9, 0x3fe2000000000000, 0x403c000000000000, 4, 4, 0},
      {32, 5, 0x3fd8d210ed43c794, 0x3fde6c74050b5989, 0x3fe3c00000000000, 0x4040000000000000, 4, 4, 0},
  });
}

TEST(ScenarioMeasurePinTest, NoForgedPoolWithChurnAndEventTiming) {
  ScenarioSpec spec = base_spec();
  spec.gossip.forged_id_count = 0;  // byzantine members push their own ids
  spec.schedule = {{AttackKind::kQuiescent, 3, 0.0, 0},
                   {AttackKind::kSybilChurn, 10, 0.0, /*rotate_every=*/4},
                   {AttackKind::kSybilChurn, 5, 0.0, /*rotate_every=*/2}};
  spec.measure_every = 3;
  spec.churn = ChurnConfig{};
  spec.churn->pre_t0_rounds = 6;
  spec.churn->leave_probability = 0.1;
  spec.timing = TimingSpec{};
  spec.timing->kind = TimingSpec::Kind::kEvent;
  spec.timing->latency = TimingSpec::LatencyKind::kUniform;
  spec.timing->latency_base = 0.5;
  spec.timing->latency_spread = 1.0;
  ScenarioEngine engine(spec);
  expect_pinned(engine.run(), {
      {3, 0, 0x3fc95db730fa4c51, 0x0, 0x3fc6000000000000, 0x4010000000000000, 0, 0, 0},
      {6, 1, 0x3fc842330b0ff0ab, 0x0, 0x3fc3000000000000, 0x4014000000000000, 0, 0, 0},
      {9, 1, 0x3fc707eb34a698b1, 0x3f9be1958b67ebb9, 0x3fc3000000000000, 0x4018000000000000, 0, 0, 0},
      {12, 1, 0x3fc71e8064b71a0f, 0x3fa784f9aaf7dbd1, 0x3fc9000000000000, 0x401c000000000000, 0, 0, 0},
      {13, 1, 0x3fc7554e01a1a303, 0x3face739ce739ce7, 0x3fcd000000000000, 0x401c000000000000, 0, 0, 0},
      {15, 2, 0x3fc812e629ec46a6, 0x3fb02d02d02d02d0, 0x3fcd000000000000, 0x4020000000000000, 0, 0, 0},
      {18, 2, 0x3fc99529a1c4d061, 0x3fb0f88577154910, 0x3fce000000000000, 0x4024000000000000, 0, 0, 0},
  });
}

// A trace workload whose ids (offset by 2^64 - 1, so they wrap) land on
// every side of the engine's malicious ranges: byzantine labels, a correct
// label, the static forged pool, minted Sybil ids, Sybil ids reserved but
// not yet minted at the early measure points, the first id past the
// reservation, and 2^64 - 1.
TEST(ScenarioMeasurePinTest, TraceIdsAcrossTheMaliciousRanges) {
  ScenarioSpec spec = base_spec();
  spec.schedule = {{AttackKind::kStaticFlood, 4, 0.0, 0},
                   {AttackKind::kSybilChurn, 12, 0.0, /*rotate_every=*/5}};
  spec.measure_every = 2;
  const NodeId forged = 20 + (NodeId{1} << 32);  // nodes + 2^32
  const NodeId sybil = forged + 4;  // the churn phase mints 12 ids from here
  const std::vector<NodeId> targets = {
      0,          3,          4,           19,         forged,
      forged + 3, sybil,      sybil + 5,   sybil + 11, sybil + 12,
      ~NodeId{0}, ~NodeId{0}, sybil + 9,   1,          forged + 1};
  Stream trace;
  for (int r = 0; r < 16; ++r)
    for (const NodeId t : targets) trace.push_back(t + 1);  // wraps with the offset
  const std::string path = ::testing::TempDir() + "scenario_pin_ranges.trace";
  save_stream_text(trace, path);
  spec.workload = TraceReplayConfig{};
  spec.workload->kind = TraceReplayConfig::Kind::kTraceFile;
  spec.workload->path = path;
  spec.workload->ids_per_round = targets.size();
  spec.workload->id_offset = ~NodeId{0};
  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();
  std::remove(path.c_str());
  // The wrapped ids really reach the outputs measure() reads.
  std::uint64_t seen_top = 0, seen_reserved = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const FrequencyHistogram& h =
        engine.network().service(i).output_histogram();
    seen_top += h.count(~NodeId{0});
    seen_reserved += h.count(sybil + 9);
  }
  EXPECT_GT(seen_top, 0u);
  EXPECT_GT(seen_reserved, 0u);
  expect_pinned(report, {
      {2, 0, 0x3fe21338cab3fc81, 0x3fded097b425ed09, 0x3fd5800000000000, 0x4020000000000000, 0, 0, 30},
      {4, 0, 0x3fdd57a9cafe8b36, 0x3fd5555555555555, 0x3fd5800000000000, 0x4020000000000000, 0, 0, 60},
      {6, 1, 0x3fdd5de05a171ae4, 0x3fd587e6b74f0329, 0x3fd7000000000000, 0x4028000000000000, 0, 0, 90},
      {8, 1, 0x3fdc60b112ee3bff, 0x3fd284bda12f684c, 0x3fd6000000000000, 0x4028000000000000, 0, 0, 120},
      {10, 1, 0x3fdc7bb80165e032, 0x3fd240795ceb2408, 0x3fd8800000000000, 0x4030000000000000, 0, 0, 150},
      {12, 1, 0x3fdc2738674b0af8, 0x3fd2c3f35ba78195, 0x3fd3800000000000, 0x4030000000000000, 0, 0, 180},
      {14, 1, 0x3fdb68638558a96b, 0x3fd362e0d8b8362e, 0x3fd0800000000000, 0x4030000000000000, 0, 0, 210},
      {16, 1, 0x3fdbd60fba1a362c, 0x3fd3b425ed097b42, 0x3fd3000000000000, 0x4034000000000000, 0, 0, 240},
  });
}

}  // namespace
}  // namespace unisamp::scenario
