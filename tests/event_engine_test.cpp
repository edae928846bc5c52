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
#include <limits>
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

// The lockstep oracle gossips from the network's own knowledge caches, so
// the differential tests above cannot see a change to how those caches
// fill, wrap or are sampled.  These checksums can: they were captured
// before the caches moved into one flat array and must not move.  Every
// case runs long enough for some node's cache to wrap, 64 ids included.
TEST(SimDriverDifferential, KnowledgeCacheSizesArePinned) {
  LinkLatencyModel bimodal;
  bimodal.kind = LinkLatencyModel::Kind::kBimodal;
  bimodal.base = kTicksPerRound / 4;
  bimodal.spread = kTicksPerRound / 2;
  bimodal.far_fraction = 0.2;
  bimodal.far_extra = 2 * kTicksPerRound;
  bimodal.seed = 44;
  const struct {
    const char* name;
    TimingModel timing;
  } modes[] = {
      {"rounds", TimingModel::rounds()},
      {"zero-latency event", TimingModel::event(LinkLatencyModel{})},
      {"bimodal event", TimingModel::event(bimodal, 6, 4)},
  };
  const struct {
    std::size_t cache;
    std::uint64_t checksum[3];  // one per mode, in `modes` order
  } pins[] = {
      {0,
       {5233849542930686785ULL, 9409947222407110256ULL,
        12665398456813574214ULL}},
      {1,
       {1315096483246123644ULL, 4941534590851905637ULL,
        1297489988550746058ULL}},
      {3,
       {6147454442775015172ULL, 4002172471117863154ULL,
        6557620441423391750ULL}},
      {64,
       {7576393203562449859ULL, 5257474847563810186ULL,
        6221244705136493361ULL}},
  };
  for (const auto& pin : pins) {
    for (std::size_t m = 0; m < 3; ++m) {
      SCOPED_TRACE(::testing::Message() << "knowledge_cache=" << pin.cache
                                        << ", " << modes[m].name);
      GossipConfig g;
      g.fanout = 3;
      g.knowledge_cache = pin.cache;
      g.seed = 45;
      g.byzantine_count = 3;
      g.flood_factor = 5;
      g.forged_id_count = 6;
      GossipNetwork net(Topology::small_world(24, 4, 0.1, 46), g,
                        recording_service());
      SimDriver driver(net, modes[m].timing);
      driver.run_ticks(20);
      const EngineStats& s = driver.stats();
      std::uint64_t acc = kChecksumSeed;
      for (const std::uint64_t v :
           {s.events_processed, s.messages_sent, s.messages_delivered,
            s.messages_heard, s.dropped_overflow, s.dropped_inactive,
            s.peak_queue_depth, s.peak_inbox_backlog, net.delivered()})
        acc = checksum_fold(acc, v);
      std::uint64_t most_heard = 0;  // by one node, each id remembered
      for (std::size_t i = 0; i < net.size(); ++i) {
        if (!net.has_service(i)) continue;
        for (const NodeId id : net.service(i).sampler().memory())
          acc = checksum_fold(acc, id);
        most_heard = std::max<std::uint64_t>(
            most_heard, net.service(i).processed() + net.inbox_depth(i));
      }
      EXPECT_GT(most_heard, pin.cache) << "no cache wrapped";
      EXPECT_EQ(acc, pin.checksum[m]);
    }
  }
}

// The flush visits the instrumented nodes as a software pipeline: it warms
// the next nodes' sampler state and settles each output histogram one node
// late.  None of that may change what any node holds.  These checksums were
// captured while the flush still walked every node and settled each
// histogram at once; they cover the engine counters, every Gamma and every
// histogram, with every node and with every third node instrumented, in
// rounds mode and under a bimodal, bandwidth-limited event mode.  Two more
// event legs were pinned before a tick's sends became one queue record and
// receivers without a service stopped loading their NodeState: zero latency,
// where ids arrive at the instant of the send run that is still popping, and
// mid-run churn, where byzantine, instrumented and uninstrumented receivers
// leave with ids in flight.  Both legs also drop ids at full inboxes.
TEST(SimDriverDifferential, FlushPipelineStatesArePinned) {
  LinkLatencyModel bimodal;
  bimodal.kind = LinkLatencyModel::Kind::kBimodal;
  bimodal.base = kTicksPerRound / 4;
  bimodal.spread = kTicksPerRound / 2;
  bimodal.far_fraction = 0.2;
  bimodal.far_extra = 2 * kTicksPerRound;
  bimodal.seed = 52;
  const struct {
    const char* name;
    TimingModel timing;
    bool churn;
  } modes[] = {
      {"rounds", TimingModel::rounds(), false},
      {"bimodal event", TimingModel::event(bimodal, 6, 4), false},
      {"zero-latency event", TimingModel::event(LinkLatencyModel{}, 6, 4),
       false},
      {"bimodal event, mid-run churn", TimingModel::event(bimodal, 6, 4), true},
  };
  const struct {
    std::size_t stride;
    std::uint64_t checksum[4];  // one per mode, in `modes` order
  } pins[] = {
      {1,
       {7717123396173267928ULL, 14249831891805467013ULL,
        16796511722727510663ULL, 6137197174487221464ULL}},
      {3,
       {9691943586959690037ULL, 16377338048419934998ULL,
        8636894692764376229ULL, 8485762589384618369ULL}},
  };
  for (const auto& pin : pins) {
    for (std::size_t m = 0; m < 4; ++m) {
      SCOPED_TRACE(::testing::Message() << "observer_stride=" << pin.stride
                                        << ", " << modes[m].name);
      GossipConfig g;
      g.fanout = 3;
      g.seed = 53;
      g.byzantine_count = 4;
      g.flood_factor = 5;
      g.forged_id_count = 12;
      g.observer_stride = pin.stride;
      GossipNetwork net(Topology::small_world(40, 4, 0.1, 54), g,
                        recording_service());
      SimDriver driver(net, modes[m].timing);
      if (modes[m].churn) {
        // A byzantine node, instrumented nodes, a node instrumented only at
        // stride 1, and a node that never returns.
        for (const std::size_t node : {1, 4, 5, 20, 39}) {
          driver.schedule_set_active(5, node, false);
          driver.schedule_set_active(12, node, true);
        }
        driver.schedule_set_active(15, 22, false);
      }
      driver.run_ticks(20);
      const EngineStats& s = driver.stats();
      if (modes[m].churn) {
        EXPECT_GT(s.dropped_inactive, 0u);
      }
      if (modes[m].timing.inbox_capacity > 0) {
        EXPECT_GT(s.dropped_overflow, 0u);
      }
      std::uint64_t acc = kChecksumSeed;
      for (const std::uint64_t v :
           {s.events_processed, s.messages_sent, s.messages_delivered,
            s.messages_heard, s.dropped_overflow, s.dropped_inactive,
            s.peak_queue_depth, s.peak_inbox_backlog, net.delivered()})
        acc = checksum_fold(acc, v);
      for (std::size_t i = 0; i < net.size(); ++i) {
        if (!net.has_service(i)) continue;
        const SamplingService& service = net.service(i);
        for (const NodeId id : service.sampler().memory())
          acc = checksum_fold(acc, id);
        acc = checksum_fold(acc, service.output_histogram().total());
        acc = checksum_fold(acc, service.output_histogram().distinct());
      }
      EXPECT_EQ(acc, pin.checksum[m]);
    }
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
  constexpr std::uint64_t kTicks = 6;
  driver.run_ticks(kTicks);

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
  // Queue counters are in ids, however the queue groups a link's ids: each
  // tick pops its n + 2 control events, the churn toggle pops once, and
  // every id no longer in flight popped as one event.
  EXPECT_EQ(stats.events_processed,
            kTicks * (net.size() + 2) + 1 +
                (stats.messages_sent - driver.in_flight_messages()));
  EXPECT_EQ(stats.peak_queue_depth, 929u);  // ids, not queue records
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

TEST(SimDriverEvent, RejectsLatencyModelsThatTrapOrWrap) {
  GossipNetwork net(Topology::complete(8), event_gossip(),
                    recording_service());
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  // spread + 1 wraps to 0, so transit() would divide by zero.
  LinkLatencyModel trap;
  trap.kind = LinkLatencyModel::Kind::kUniform;
  trap.spread = kMax;
  EXPECT_THROW(SimDriver driver(net, TimingModel::event(trap)),
               std::invalid_argument);
  // base + spread wraps past 2^64: an id would arrive before it was sent.
  LinkLatencyModel wrap;
  wrap.kind = LinkLatencyModel::Kind::kUniform;
  wrap.base = kMax - 5;
  wrap.spread = 100;
  EXPECT_THROW(SimDriver driver(net, TimingModel::event(wrap)),
               std::invalid_argument);
  // Rounds mode ignores the latency model.
  TimingModel rounds = TimingModel::rounds();
  rounds.latency = trap;
  EXPECT_NO_THROW(SimDriver driver(net, rounds));
}

TEST(LinkLatency, ValidateBoundsEachTermAtTenToTheSixRounds) {
  LinkLatencyModel ok;
  ok.kind = LinkLatencyModel::Kind::kBimodal;
  ok.base = ok.spread = ok.far_extra = LinkLatencyModel::kMaxTerm;
  ok.far_fraction = 1.0;
  EXPECT_NO_THROW(ok.validate());
  EXPECT_EQ(LinkLatencyModel::kMaxTerm, 1'000'000 * kTicksPerRound);
  for (SimTime LinkLatencyModel::*term :
       {&LinkLatencyModel::base, &LinkLatencyModel::spread,
        &LinkLatencyModel::far_extra}) {
    LinkLatencyModel bad = ok;
    bad.*term = LinkLatencyModel::kMaxTerm + 1;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
  for (const double fraction :
       {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    LinkLatencyModel bad = ok;
    bad.far_fraction = fraction;
    EXPECT_THROW(bad.validate(), std::invalid_argument);
  }
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

TEST(SimDriverChurn, RejectsTicksWhoseStartTimeOverflows) {
  GossipNetwork net(Topology::complete(8), event_gossip(),
                    recording_service());
  SimDriver driver(net, TimingModel::rounds());
  const std::uint64_t last =
      std::numeric_limits<SimTime>::max() / kTicksPerRound;
  EXPECT_THROW(driver.schedule_set_active(last + 1, 2, false),
               std::invalid_argument);
  EXPECT_THROW(
      driver.schedule_set_active(std::numeric_limits<std::uint64_t>::max(), 2,
                                 false),
      std::invalid_argument);
  EXPECT_NO_THROW(driver.schedule_set_active(last, 2, false));
  driver.run_ticks(2);
  EXPECT_TRUE(net.is_active(2));
}

}  // namespace
}  // namespace unisamp
