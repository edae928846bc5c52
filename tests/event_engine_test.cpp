// Discrete-event engine (sim/event_engine, sim/driver): deterministic queue
// ordering, the per-link latency model, and the differential contracts that
// license the whole PR — SimDriver's degenerate rounds config must be
// bit-identical to the legacy lockstep loop (kept as
// run_round_reference in support/lockstep_oracle.hpp, the specification
// oracle) on
// figure-style scenarios including mid-run churn, zero-latency event mode
// must match rounds mode even though every id then traverses the queue,
// and bounded-inbox drop accounting must satisfy its conservation law.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/churn.hpp"
#include "sim/driver.hpp"
#include "sim/event_engine.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "support/lockstep_oracle.hpp"

namespace unisamp {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, OrdersByTimeThenKindThenSeq) {
  EventQueue q;
  // Push deliberately scrambled; payload tags the expected pop position.
  q.push(2 * kTicksPerRound, EventKind::kNodeSend, 0, 0, /*payload=*/6);
  q.push(kTicksPerRound, EventKind::kMessage, 1, 2, 4);
  q.push(kTicksPerRound, EventKind::kTickFlush, 0, 0, 2);
  q.push(0, EventKind::kNodeSend, 0, 0, 1);
  q.push(kTicksPerRound, EventKind::kChurn, 3, 0, 3);
  q.push(kTicksPerRound, EventKind::kMessage, 1, 2, 5);  // same (time, kind):
                                                         // seq breaks the tie
  q.push(0, EventKind::kTickFlush, 0, 0, 0);
  std::vector<NodeId> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, EqualEventsPopInScheduleOrder) {
  EventQueue q;
  for (NodeId i = 0; i < 100; ++i)
    q.push(7, EventKind::kMessage, 0, 0, i);
  for (NodeId i = 0; i < 100; ++i) EXPECT_EQ(q.pop().payload, i);
}

TEST(EventQueue, TracksInFlightMessagesAndPeak) {
  EventQueue q;
  q.push(0, EventKind::kTickBegin, 0, 0, 0);
  q.push(1, EventKind::kMessage, 0, 1, 9);
  q.push(2, EventKind::kMessage, 0, 1, 9);
  EXPECT_EQ(q.in_flight_messages(), 2u);
  EXPECT_EQ(q.peak_size(), 3u);
  q.pop();  // tick begin
  EXPECT_EQ(q.in_flight_messages(), 2u);
  q.pop();  // first message
  EXPECT_EQ(q.in_flight_messages(), 1u);
  q.pop();
  EXPECT_EQ(q.in_flight_messages(), 0u);
  EXPECT_EQ(q.peak_size(), 3u);
}

// ----------------------------------------------------------- LinkLatencyModel

TEST(LinkLatency, SynchronizedIsAlwaysZero) {
  LinkLatencyModel model;  // defaults to kSynchronized
  model.base = 123;        // ignored in synchronized mode
  EXPECT_EQ(model.transit(0, 1), 0u);
  EXPECT_EQ(model.transit(5, 4), 0u);
}

TEST(LinkLatency, UniformIsDeterministicPerLinkWithinBounds) {
  LinkLatencyModel model;
  model.kind = LinkLatencyModel::Kind::kUniform;
  model.base = 100;
  model.spread = 50;
  model.seed = 9;
  bool saw_distinct = false;
  for (std::uint32_t from = 0; from < 20; ++from) {
    for (std::uint32_t to = 0; to < 20; ++to) {
      const SimTime t = model.transit(from, to);
      EXPECT_GE(t, 100u);
      EXPECT_LE(t, 150u);
      EXPECT_EQ(t, model.transit(from, to));  // stable per link
      if (t != model.transit(0, 1)) saw_distinct = true;
    }
  }
  EXPECT_TRUE(saw_distinct) << "latency degenerated to a constant";
}

TEST(LinkLatency, BimodalAddsFarExtraOnAFractionOfLinks) {
  LinkLatencyModel model;
  model.kind = LinkLatencyModel::Kind::kBimodal;
  model.base = 10;
  model.spread = 0;
  model.far_fraction = 0.5;
  model.far_extra = 1000;
  model.seed = 4;
  std::size_t far = 0, near = 0;
  for (std::uint32_t from = 0; from < 40; ++from)
    for (std::uint32_t to = 0; to < 40; ++to) {
      const SimTime t = model.transit(from, to);
      if (t == 1010u)
        ++far;
      else if (t == 10u)
        ++near;
      else
        FAIL() << "unexpected transit " << t;
    }
  EXPECT_GT(far, 0u);
  EXPECT_GT(near, 0u);
}

// ------------------------------------------------- differential bit-identity

ServiceConfig recording_service() {
  ServiceConfig cfg;
  cfg.strategy = Strategy::kKnowledgeFree;
  cfg.memory_size = 8;
  cfg.sketch_width = 6;
  cfg.sketch_depth = 4;
  cfg.record_output = true;
  return cfg;
}

void expect_worlds_identical(GossipNetwork& a, GossipNetwork& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.delivered(), b.delivered());
  EXPECT_EQ(a.rounds_run(), b.rounds_run());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.has_service(i), b.has_service(i)) << "node " << i;
    if (!a.has_service(i)) continue;
    EXPECT_EQ(a.service(i).processed(), b.service(i).processed())
        << "node " << i;
    EXPECT_EQ(a.service(i).output_stream(), b.service(i).output_stream())
        << "node " << i;
    EXPECT_EQ(a.input_stream(i), b.input_stream(i)) << "node " << i;
    EXPECT_EQ(a.service(i).sampler().memory(),
              b.service(i).sampler().memory())
        << "node " << i;
  }
}

struct FigStyle {
  const char* name;
  Topology topology;
  GossipConfig gossip;
};

// Scenario shapes lifted from the figure catalogue: a clean-network
// uniformity run (fig. 3 style), the adaptive-bench flood overlay (fig. 8
// style), and a small-world Sybil flood (fig. 10 style).
std::vector<FigStyle> fig_style_worlds() {
  std::vector<FigStyle> worlds;
  {
    GossipConfig g;
    g.fanout = 3;
    g.seed = 21;
    g.record_inputs = true;
    worlds.push_back({"fig3-clean", Topology::complete(30), g});
  }
  {
    GossipConfig g;
    g.fanout = 2;
    g.seed = 22;
    g.byzantine_count = 4;
    g.flood_factor = 30;
    g.forged_id_count = 4;
    g.record_inputs = true;
    worlds.push_back(
        {"fig8-flood", Topology::random_regular(40, 4, 77), g});
  }
  {
    GossipConfig g;
    g.fanout = 3;
    g.seed = 23;
    g.byzantine_count = 8;
    g.flood_factor = 8;
    g.forged_id_count = 16;
    g.record_inputs = true;
    worlds.push_back(
        {"fig10-sybil", Topology::small_world(48, 4, 0.1, 78), g});
  }
  return worlds;
}

TEST(SimDriverDifferential, RoundsModeMatchesLockstepOracleWithMidRunChurn) {
  for (FigStyle& world : fig_style_worlds()) {
    SCOPED_TRACE(world.name);
    // Churn mid-run: a byzantine member (when present), a mid node, and
    // the last node leave at tick 5 and return at tick 10; 15 ticks total.
    const std::size_t n = world.topology.size();
    const std::vector<std::size_t> churned = {
        world.gossip.byzantine_count > 0 ? std::size_t{0} : std::size_t{1},
        n / 2, n - 1};

    GossipNetwork reference(world.topology, world.gossip,
                            recording_service());
    for (std::size_t r = 0; r < 15; ++r) {
      if (r == 5)
        for (const std::size_t id : churned) reference.set_active(id, false);
      if (r == 10)
        for (const std::size_t id : churned) reference.set_active(id, true);
      run_round_reference(reference);
    }

    GossipNetwork driven(world.topology, world.gossip, recording_service());
    SimDriver driver(driven, TimingModel::rounds());
    for (const std::size_t id : churned) {
      driver.schedule_set_active(5, id, false);
      driver.schedule_set_active(10, id, true);
    }
    driver.run_ticks(15);

    expect_worlds_identical(reference, driven);
    EXPECT_EQ(driver.stats().messages_delivered, driven.delivered());
    EXPECT_EQ(driver.in_flight_messages(), 0u);
  }
}

TEST(SimDriverDifferential, ZeroLatencyEventModeMatchesRoundsMode) {
  // In event mode every id traverses the queue as a kMessage event; with
  // synchronized (zero) latency the (time, kind, seq) order must reproduce
  // the rounds-mode cut-through exactly.
  for (FigStyle& world : fig_style_worlds()) {
    SCOPED_TRACE(world.name);
    GossipNetwork rounds_net(world.topology, world.gossip,
                             recording_service());
    SimDriver rounds_driver(rounds_net, TimingModel::rounds());
    rounds_driver.run_ticks(12);

    GossipNetwork event_net(world.topology, world.gossip,
                            recording_service());
    SimDriver event_driver(event_net, TimingModel::event(LinkLatencyModel{}));
    event_driver.run_ticks(12);

    expect_worlds_identical(rounds_net, event_net);
    EXPECT_GT(event_driver.stats().messages_sent, 0u);
    EXPECT_EQ(event_driver.stats().messages_sent,
              event_driver.stats().messages_delivered +
                  event_driver.stats().messages_heard);
  }
}

// ------------------------------------------------------------- event timing

GossipConfig event_gossip() {
  GossipConfig g;
  g.fanout = 2;
  g.seed = 31;
  g.byzantine_count = 3;
  g.flood_factor = 6;
  g.forged_id_count = 8;
  return g;
}

TEST(SimDriverEvent, LatencyDelaysDeliveryAcrossTicks) {
  LinkLatencyModel latency;
  latency.kind = LinkLatencyModel::Kind::kUniform;
  latency.base = kTicksPerRound;  // exactly one round of transit
  latency.spread = 0;
  GossipNetwork net(Topology::random_regular(20, 4, 5), event_gossip(),
                    recording_service());
  SimDriver driver(net, TimingModel::event(latency));
  driver.run_ticks(1);
  // Everything sent in tick 0 is still in flight at the tick-1 boundary.
  EXPECT_EQ(net.delivered(), 0u);
  EXPECT_GT(driver.in_flight_messages(), 0u);
  EXPECT_EQ(driver.stats().messages_sent, driver.in_flight_messages());
  driver.run_ticks(2);
  EXPECT_GT(net.delivered(), 0u);
}

TEST(SimDriverEvent, DropAccountingClosesTheConservationLaw) {
  LinkLatencyModel latency;
  latency.kind = LinkLatencyModel::Kind::kUniform;
  latency.base = kTicksPerRound;      // transit in [1, 2] rounds: messages
  latency.spread = kTicksPerRound;    // sent to a node that churns out next
                                      // tick are guaranteed to find it gone
  latency.seed = 17;
  // Capacity 1 with bandwidth 1 under a flood guarantees tail-drops.
  const TimingModel timing = TimingModel::event(latency, /*inbox_capacity=*/1,
                                                /*bandwidth_per_tick=*/1);
  GossipNetwork net(Topology::random_regular(24, 4, 6), event_gossip(),
                    recording_service());
  SimDriver driver(net, timing);
  driver.schedule_set_active(1, 20, false);  // leaves with ids in flight
  driver.run_ticks(6);

  const EngineStats& stats = driver.stats();
  EXPECT_GT(stats.dropped_overflow, 0u);
  EXPECT_GT(stats.dropped_inactive, 0u);
  EXPECT_GT(stats.peak_inbox_backlog, 0u);
  // Conservation: every id emitted is delivered, heard by an
  // uninstrumented node, dropped with a recorded reason, or in flight.
  EXPECT_EQ(stats.messages_sent,
            stats.messages_delivered + stats.messages_heard +
                stats.dropped_overflow + stats.dropped_inactive +
                driver.in_flight_messages());
  // Accepted ids are either flushed into samplers or still pending.
  std::uint64_t processed = 0, pending = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    pending += net.inbox_depth(i);
    if (net.has_service(i)) processed += net.service(i).processed();
  }
  EXPECT_EQ(net.delivered(), processed + pending);
  EXPECT_EQ(stats.messages_delivered, net.delivered());
}

TEST(SimDriverEvent, DeterministicAcrossRuns) {
  auto run = [] {
    LinkLatencyModel latency;
    latency.kind = LinkLatencyModel::Kind::kBimodal;
    latency.base = kTicksPerRound / 4;
    latency.spread = kTicksPerRound / 2;
    latency.far_fraction = 0.2;
    latency.far_extra = 2 * kTicksPerRound;
    latency.seed = 40;
    GossipNetwork net(Topology::random_regular(30, 4, 9), event_gossip(),
                      recording_service());
    SimDriver driver(net, TimingModel::event(latency, 4, 3));
    driver.run_ticks(10);
    std::vector<std::uint64_t> state{net.delivered(),
                                     driver.stats().dropped_overflow,
                                     driver.stats().events_processed};
    for (std::size_t i = 0; i < net.size(); ++i)
      if (net.has_service(i)) {
        state.push_back(net.service(i).processed());
        for (const NodeId id : net.service(i).output_stream())
          state.push_back(id);
      }
    return state;
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------- adversary tick hook

struct TickRecordingAdversary final : RoundAdversary {
  std::vector<std::uint64_t> ticks;
  std::size_t begin_round_calls = 0;
  void begin_round(const GossipNetwork&) override { ++begin_round_calls; }
  void begin_tick(const GossipNetwork& net, std::uint64_t tick) override {
    ticks.push_back(tick);
    begin_round(net);
  }
  void push_ids(std::size_t, std::size_t, Xoshiro256&,
                std::vector<NodeId>&) override {}
  std::span<const NodeId> malicious_ids() const override { return {}; }
};

TEST(SimDriverAdversary, BeginTickFiresOnEventTimeBoundaries) {
  GossipNetwork net(Topology::complete(10), event_gossip(),
                    recording_service());
  TickRecordingAdversary adversary;
  net.set_adversary(&adversary);
  LinkLatencyModel latency;
  latency.kind = LinkLatencyModel::Kind::kUniform;
  latency.base = kTicksPerRound / 2;
  SimDriver driver(net, TimingModel::event(latency));
  driver.run_ticks(4);
  net.set_adversary(nullptr);
  EXPECT_EQ(adversary.ticks, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(adversary.begin_round_calls, 4u);
}

// ------------------------------------------------------- observer stride

TEST(ObserverStride, InstrumentedSubsetMatchesFullInstrumentation) {
  GossipConfig full = event_gossip();
  GossipConfig strided = full;
  strided.observer_stride = 3;
  const Topology topo = Topology::random_regular(20, 4, 11);

  GossipNetwork full_net(topo, full, recording_service());
  SimDriver full_driver(full_net, TimingModel::rounds());
  full_driver.run_ticks(10);

  GossipNetwork strided_net(topo, strided, recording_service());
  SimDriver strided_driver(strided_net, TimingModel::rounds());
  strided_driver.run_ticks(10);

  // Instrumentation must not perturb the protocol: an instrumented node in
  // the strided world evolves exactly like the same node fully observed.
  std::size_t instrumented = 0;
  for (std::size_t i = 0; i < strided_net.size(); ++i) {
    if (strided_net.is_byzantine(i)) {
      EXPECT_FALSE(strided_net.has_service(i));
      continue;
    }
    const bool expect_service = (i - full.byzantine_count) % 3 == 0;
    ASSERT_EQ(strided_net.has_service(i), expect_service) << "node " << i;
    if (!expect_service) {
      EXPECT_THROW(strided_net.service(i), std::invalid_argument);
      continue;
    }
    ++instrumented;
    EXPECT_EQ(strided_net.service(i).processed(),
              full_net.service(i).processed())
        << "node " << i;
    EXPECT_EQ(strided_net.service(i).output_stream(),
              full_net.service(i).output_stream())
        << "node " << i;
  }
  EXPECT_GT(instrumented, 0u);
  EXPECT_LT(instrumented, strided_net.size() - strided.byzantine_count);
  EXPECT_LT(strided_net.delivered(), full_net.delivered());
  EXPECT_EQ(strided_net.sample_correct_nodes().size(), instrumented);
}

TEST(ObserverStride, ZeroStrideRejected) {
  GossipConfig cfg = event_gossip();
  cfg.observer_stride = 0;
  EXPECT_THROW(
      GossipNetwork(Topology::complete(8), cfg, recording_service()),
      std::invalid_argument);
}

// -------------------------------------------------------------- churn events

TEST(SimDriverChurn, ScheduledEventsMatchManualToggles) {
  GossipConfig cfg = event_gossip();
  cfg.record_inputs = true;
  const Topology topo = Topology::complete(16);

  GossipNetwork manual(topo, cfg, recording_service());
  for (std::size_t r = 0; r < 8; ++r) {
    if (r == 2) manual.set_active(7, false);
    if (r == 5) manual.set_active(7, true);
    run_round_reference(manual);
  }

  GossipNetwork scheduled(topo, cfg, recording_service());
  SimDriver driver(scheduled, TimingModel::rounds());
  driver.schedule_set_active(2, 7, false);
  driver.schedule_set_active(5, 7, true);
  driver.run_ticks(8);

  expect_worlds_identical(manual, scheduled);
}

TEST(SimDriverChurn, RejectsPastTicksAndOutOfRangeNodes) {
  GossipNetwork net(Topology::complete(8), event_gossip(),
                    recording_service());
  SimDriver driver(net, TimingModel::rounds());
  driver.run_ticks(3);
  EXPECT_THROW(driver.schedule_set_active(1, 2, false),
               std::invalid_argument);
  EXPECT_THROW(driver.schedule_set_active(5, 99, false), std::out_of_range);
  EXPECT_NO_THROW(driver.schedule_set_active(3, 2, false));
}

}  // namespace
}  // namespace unisamp
