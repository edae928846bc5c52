// gossip_rounds and gossip_event: whole protocol rounds of the gossip
// simulator, one SimDriver::run_ticks(1) per step, under a static Sybil
// flood.
//
//  * gossip_rounds — TimingModel::rounds() on a 4096-node small world with
//    every correct node instrumented: thousands of small sampler states fed
//    through flush_tick batches.  Sends cut through to inline delivery, so
//    the event queue carries only n + 2 events per tick.  The tick cost
//    climbs for the first ~200 ticks while sampler memories and output
//    histograms fill, so those are warm-up.
//  * gossip_event — event_latency_scale's shape at n = 20,000 (1% byzantine,
//    every 97th correct node observed, about 200 samplers): bimodal link
//    latency, bounded inboxes and per-tick bandwidth, so every id is a queue
//    event and few ids reach a sampler.
//
// The overlay (topology and byzantine placement) is part of each shape and
// built from a fixed seed; --seed draws everything the protocol randomises:
// peer choices, link latencies, flood draws and sampler keys.  A seed then
// changes the run, not the network it runs on, so seed-to-seed differences
// in queue depth and attack reach stay out of comparisons.
//
// Traced run: TracedDriver below replays SimDriver::run_ticks from outside,
// through GossipNetwork's public engine contract and the public EventQueue
// and LinkLatencyModel, reading the clock once per popped event.  A run is
// accepted only if its checksum and EngineStats equal an untraced SimDriver
// run of the same world.  TracedDriver goes away once the simulator has its
// own stage timers.
#include <algorithm>
#include <memory>

#include "adversary/adaptive.hpp"
#include "common.hpp"
#include "sim/driver.hpp"
#include "sim/event_engine.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"

namespace ubench {
namespace {

using namespace unisamp;

struct GossipShape {
  const char* name;
  bool event_mode;
  bool small_world;  ///< small_world(n, 4, 0.1), else random_regular(n, 4)
  std::size_t nodes;
  std::size_t byzantine;
  std::size_t fanout;
  std::size_t flood;
  std::size_t forged;
  std::size_t stride;
  std::size_t memory, width, depth;  ///< c, k, s of every sampler
  bool adversary_hook;  ///< install StaticFloodAdversary via set_adversary
  std::size_t nominal_steps;
  std::size_t self_test_steps;
  std::size_t warmup;
  std::size_t setup_reps;
};

GossipShape rounds_shape(const RunOptions& opts) {
  GossipShape s{"gossip_rounds", false, true, 4096, 400, 3, 8, 256, 1,
                50, 10, 17, true, 1000, 8, 200, 25};
  if (opts.self_test) {
    s.nodes = 512;
    s.byzantine = 48;
    s.warmup = 2;
    s.setup_reps = 1;
  }
  return s;
}

GossipShape event_shape(const RunOptions& opts) {
  GossipShape s{"gossip_event", true, false, 20'000, 200, 2, 4, 256, 97,
                8, 8, 4, false, 210, 12, 20, 25};
  if (opts.self_test) {
    s.nodes = 2'000;
    s.byzantine = 20;
    s.warmup = 3;
    s.setup_reps = 1;
  }
  return s;
}

TimingModel timing_of(const GossipShape& shape, std::uint64_t seed) {
  if (!shape.event_mode) return TimingModel::rounds();
  LinkLatencyModel latency;
  latency.kind = LinkLatencyModel::Kind::kBimodal;
  latency.base = kTicksPerRound / 4;
  latency.spread = kTicksPerRound / 2;
  latency.far_fraction = 0.15;
  latency.far_extra = 2 * kTicksPerRound;
  latency.seed = derive_seed(seed, 3);
  return TimingModel::event(latency, /*inbox_capacity=*/16,
                            /*bandwidth_per_tick=*/10);
}

/// One gossip world: the network and, when the shape installs one, the
/// StaticFloodAdversary its byzantine members delegate to.
struct World {
  std::unique_ptr<GossipNetwork> net;
  std::unique_ptr<StaticFloodAdversary> adversary;
  std::size_t instrumented = 0;
  /// Construction timestamps: start, topology built, network built.
  std::int64_t t0 = 0, t1 = 0, t2 = 0;
};

/// Seed of every shape's overlay (see the file header).
constexpr std::uint64_t kOverlaySeed = 0x0E7A1;

std::unique_ptr<World> build_world(const GossipShape& shape,
                                   std::uint64_t seed) {
  auto world = std::make_unique<World>();
  GossipConfig gossip;
  gossip.fanout = shape.fanout;
  gossip.seed = derive_seed(seed, 4);
  gossip.byzantine_count = shape.byzantine;
  gossip.flood_factor = shape.flood;
  gossip.forged_id_count = shape.forged;
  gossip.observer_stride = shape.stride;
  ServiceConfig sampler;
  sampler.strategy = Strategy::kKnowledgeFree;
  sampler.memory_size = shape.memory;
  sampler.sketch_width = shape.width;
  sampler.sketch_depth = shape.depth;
  sampler.record_output = false;

  // Event mode keeps the observers' inputs (a few hundred thousand ids) for
  // output_pollution.
  gossip.record_inputs = shape.event_mode;

  world->t0 = now_ns();
  Topology topology =
      shape.small_world
          ? Topology::small_world(shape.nodes, 4, 0.1, kOverlaySeed)
          : Topology::random_regular(shape.nodes, 4, kOverlaySeed);
  world->t1 = now_ns();
  world->net = std::make_unique<GossipNetwork>(std::move(topology), gossip,
                                               sampler);
  if (shape.adversary_hook) {
    world->adversary = std::make_unique<StaticFloodAdversary>(
        world->net->forged_ids(), shape.flood);
    world->net->set_adversary(world->adversary.get());
  }
  world->t2 = now_ns();
  for (std::size_t i = 0; i < world->net->size(); ++i)
    world->instrumented += world->net->has_service(i) ? 1 : 0;
  return world;
}

std::uint64_t total_processed(const GossipNetwork& net) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < net.size(); ++i)
    if (net.has_service(i)) sum += net.service(i).processed();
  return sum;
}

std::uint64_t world_checksum(const GossipNetwork& net, const EngineStats& s,
                             std::size_t in_flight) {
  std::uint64_t acc = kChecksumSeed;
  for (const std::uint64_t v :
       {s.events_processed, s.messages_sent, s.messages_delivered,
        s.messages_heard, s.dropped_overflow, s.dropped_inactive,
        s.peak_queue_depth, s.peak_inbox_backlog,
        static_cast<std::uint64_t>(in_flight), net.delivered()})
    acc = fold(acc, v);
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (!net.has_service(i)) continue;
    const SamplingService& svc = net.service(i);
    acc = fold(acc, svc.processed());
    acc = fold(acc, svc.output_histogram().total());
    for (const NodeId id : svc.sampler().memory()) acc = fold(acc, id);
  }
  return acc;
}

bool same_stats(const EngineStats& a, const EngineStats& b) {
  return a.events_processed == b.events_processed &&
         a.messages_sent == b.messages_sent &&
         a.messages_delivered == b.messages_delivered &&
         a.messages_heard == b.messages_heard &&
         a.dropped_overflow == b.dropped_overflow &&
         a.dropped_inactive == b.dropped_inactive &&
         a.peak_queue_depth == b.peak_queue_depth &&
         a.peak_inbox_backlog == b.peak_inbox_backlog;
}

/// The EngineStats conservation law, checked after every tick.
void check_conservation(const EngineStats& s, std::size_t in_flight,
                        Checks& checks, const char* workload) {
  checks.expect(s.messages_sent == s.messages_delivered + s.messages_heard +
                                       s.dropped_overflow +
                                       s.dropped_inactive + in_flight,
                std::string(workload) + ": EngineStats conservation law broken");
}

/// Malicious share of the instrumented correct nodes' output streams (the
/// byzantine members' own ids [0, b) and the forged pool).  When the
/// network recorded its inputs, the share is divided by the malicious share
/// of those inputs: how far the flood spreads through the knowledge caches
/// varies with the seed and moved the raw share on gossip_event by 8-15%
/// between seeds, while the ratio, what the samplers make of their input,
/// moved by 3-6%.
double output_pollution(const GossipNetwork& net, std::size_t byzantine,
                        bool per_input) {
  const auto& forged = net.forged_ids();
  const NodeId forged_base = forged.empty() ? 0 : forged.front();
  const auto is_malicious = [&](NodeId id) {
    return id < byzantine || (!forged.empty() && id >= forged_base &&
                              id - forged_base < forged.size());
  };
  std::uint64_t bad = 0, total = 0, bad_in = 0, total_in = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (!net.has_service(i)) continue;
    const FrequencyHistogram& h = net.service(i).output_histogram();
    total += h.total();
    for (const auto& [id, count] : h.raw())
      if (is_malicious(id)) bad += count;
    if (!per_input) continue;
    for (const NodeId id : net.input_stream(i)) bad_in += is_malicious(id);
    total_in += net.input_stream(i).size();
  }
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  if (!per_input) return share(bad, total);
  return bad_in == 0 ? 0.0 : share(bad, total) / share(bad_in, total_in);
}

/// Times each push_ids call of the adversary it wraps; consumes exactly the
/// RNG draws the wrapped strategy does, so the run is unchanged.
class TimedAdversary final : public RoundAdversary {
 public:
  explicit TimedAdversary(RoundAdversary& inner) : inner_(inner) {}

  void begin_round(const GossipNetwork& net) override {
    inner_.begin_round(net);
  }
  void begin_tick(const GossipNetwork& net, std::uint64_t tick) override {
    inner_.begin_tick(net, tick);
  }
  void push_ids(std::size_t from, std::size_t to, Xoshiro256& rng,
                std::vector<NodeId>& out) override {
    const std::size_t before = out.size();
    const std::int64_t t0 = now_ns();
    inner_.push_ids(from, to, rng, out);
    ns += now_ns() - t0;
    ++calls;
    ids += out.size() - before;
  }
  std::span<const NodeId> malicious_ids() const override {
    return inner_.malicious_ids();
  }

  void reset() {
    ns = 0;
    calls = 0;
    ids = 0;
  }

  /// push_ids time, calls and ids since the last reset (the tracer takes
  /// ns and calls per tick; ids accumulate over the traced run).
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t ids = 0;

 private:
  RoundAdversary& inner_;
};

enum Layer : std::size_t {
  kSchedule,
  kBegin,
  kChurn,
  kSend,
  kDeliver,
  kScan,
  kFlush,
  kLayerCount
};
constexpr const char* kLayerName[kLayerCount] = {
    "sim.schedule", "sim.begin", "sim.churn", "sim.send",
    "sim.deliver",  "sim.scan",  "sim.flush"};

Layer layer_of(EventKind kind) {
  switch (kind) {
    case EventKind::kChurn: return kChurn;
    case EventKind::kTickBegin: return kBegin;
    case EventKind::kNodeSend: return kSend;
    case EventKind::kMessage: return kDeliver;
    case EventKind::kTickFlush: return kFlush;
  }
  return kFlush;
}

/// SimDriver::run_ticks, step for step, from outside the library (see the
/// file header).  Any change to src/sim/driver.cpp's event order must be
/// mirrored here; the stats/checksum equality check catches a mismatch.
class TracedDriver {
 public:
  TracedDriver(GossipNetwork& net, TimingModel timing)
      : net_(net), timing_(timing) {}

  /// One tick.  With a trace, each popped event's interval (its pop plus
  /// its dispatch) is added to its layer, and the per-layer sums are
  /// recorded as spans of this step; `adversary`, if given, is the timing
  /// decorator whose pushes are children of sim.send.
  void run_tick(Trace* trace, std::int64_t step, TimedAdversary* adversary);

  const EngineStats& stats() const { return stats_; }
  std::size_t in_flight() const { return queue_.in_flight_messages(); }

  std::uint64_t backlog_sum = 0;   ///< pending ids at each event-mode flush
  std::uint64_t inflight_sum = 0;  ///< ids in flight at each tick end

 private:
  void note(DeliveryOutcome outcome);
  void dispatch(const Event& event);

  GossipNetwork& net_;
  TimingModel timing_;
  EventQueue queue_;
  EngineStats stats_;
  std::uint64_t tick_ = 0;
};

void TracedDriver::note(DeliveryOutcome outcome) {
  switch (outcome) {
    case DeliveryOutcome::kDelivered: ++stats_.messages_delivered; return;
    case DeliveryOutcome::kHeard: ++stats_.messages_heard; return;
    case DeliveryOutcome::kInactive: ++stats_.dropped_inactive; return;
    case DeliveryOutcome::kOverflow: ++stats_.dropped_overflow; return;
  }
}

void TracedDriver::dispatch(const Event& event) {
  switch (event.kind) {
    case EventKind::kChurn:
      net_.set_active(event.from, event.payload != 0);
      return;
    case EventKind::kTickBegin:
      net_.begin_tick(tick_);
      return;
    case EventKind::kNodeSend:
      if (timing_.kind == TimingModel::Kind::kRounds) {
        net_.emit_sends(event.from, [this](std::uint32_t to, NodeId id) {
          ++stats_.messages_sent;
          note(net_.accept_delivery(to, id, 0));
        });
      } else {
        net_.emit_sends(event.from, [this, &event](std::uint32_t to,
                                                   NodeId id) {
          ++stats_.messages_sent;
          queue_.push(event.time + timing_.latency.transit(event.from, to),
                      EventKind::kMessage, event.from, to, id);
        });
      }
      return;
    case EventKind::kMessage:
      note(net_.accept_delivery(event.to, event.payload,
                                timing_.inbox_capacity));
      return;
    case EventKind::kTickFlush:
      return;
  }
}

void TracedDriver::run_tick(Trace* trace, std::int64_t step,
                            TimedAdversary* adversary) {
  const bool rounds_mode = timing_.kind == TimingModel::Kind::kRounds;
  const bool on = trace != nullptr;
  std::int64_t ns[kLayerCount] = {};
  std::uint64_t calls[kLayerCount] = {};
  const std::int64_t t_begin = on ? now_ns() : 0;

  const SimTime now = tick_ * kTicksPerRound;
  queue_.push(now, EventKind::kTickBegin, 0, 0, 0);
  for (std::size_t n = 0; n < net_.size(); ++n)
    queue_.push(now, EventKind::kNodeSend, static_cast<std::uint32_t>(n), 0,
                0);
  queue_.push(now + kTicksPerRound, EventKind::kTickFlush, 0, 0, 0);
  std::int64_t t_prev = on ? now_ns() : 0;
  const auto lap = [&](Layer layer) {
    const std::int64_t t = now_ns();
    ns[layer] += t - t_prev;
    ++calls[layer];
    t_prev = t;
  };
  if (on) {
    ns[kSchedule] = t_prev - t_begin;
    calls[kSchedule] = 1;
  }

  while (!queue_.empty()) {
    const Event event = queue_.pop();
    ++stats_.events_processed;
    if (event.kind == EventKind::kTickFlush) {
      if (!rounds_mode) {
        std::uint64_t pending = 0;
        for (std::size_t n = 0; n < net_.size(); ++n) {
          const std::uint64_t depth = net_.inbox_depth(n);
          stats_.peak_inbox_backlog =
              std::max<std::uint64_t>(stats_.peak_inbox_backlog, depth);
          pending += depth;
        }
        backlog_sum += pending;
        if (on) lap(kScan);
      }
      net_.flush_tick(rounds_mode ? 0 : timing_.bandwidth_per_tick);
      if (on) lap(kFlush);
      break;
    }
    dispatch(event);
    if (on) lap(layer_of(event.kind));
  }
  stats_.peak_queue_depth =
      std::max<std::uint64_t>(stats_.peak_queue_depth, queue_.peak_size());
  ++tick_;
  inflight_sum += queue_.in_flight_messages();
  if (!on) return;

  const std::int64_t t_end = now_ns();
  trace->add("sim.tick", "", step, t_begin, t_end);
  for (std::size_t l = 0; l < kLayerCount; ++l)
    if (calls[l] > 0)
      trace->add(kLayerName[l], "sim.tick", step, t_begin, t_end, ns[l],
                 calls[l]);
  if (adversary != nullptr) {
    trace->add("adversary.push", "sim.send", step, t_begin, t_end,
               adversary->ns, adversary->calls);
    adversary->ns = 0;
    adversary->calls = 0;
  }
}

Result run_gossip(const GossipShape& shape, const RunOptions& opts) {
  const TimingModel timing = timing_of(shape, opts.seed);
  Result result;
  result.warmup = shape.warmup;
  result.steps = step_count(opts, shape.nominal_steps, shape.self_test_steps);
  Checks& checks = result.checks;

  std::unique_ptr<World> world;
  StepTimer setup;
  std::vector<std::int64_t> stamps;  // t0, t1, t2 of every repetition
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    world.reset();
    world = build_world(shape, opts.seed);
    setup.record(world->t0, world->t2);
    stamps.insert(stamps.end(), {world->t0, world->t1, world->t2});
  }
  setup.finish();

  // Untraced run through the library's own SimDriver.
  StepTimer steps;
  EngineStats untraced_stats;
  std::size_t untraced_in_flight = 0;
  {
    GossipNetwork& net = *world->net;
    SimDriver driver(net, timing);
    for (std::size_t i = 0; i < shape.warmup; ++i) {
      driver.run_ticks(1);
      check_conservation(driver.stats(), driver.in_flight_messages(), checks,
                         shape.name);
    }
    const EngineStats start = driver.stats();
    for (std::size_t i = 0; i < result.steps; ++i) {
      steps.start();
      driver.run_ticks(1);
      steps.stop();
      check_conservation(driver.stats(), driver.in_flight_messages(), checks,
                         shape.name);
    }
    steps.finish();
    untraced_stats = driver.stats();
    untraced_in_flight = driver.in_flight_messages();
    result.checksum =
        world_checksum(net, untraced_stats, untraced_in_flight);
    if (!opts.traced) {
      const EngineStats& end = untraced_stats;
      const double sent =
          static_cast<double>(end.messages_sent - start.messages_sent);
      const double dropped = static_cast<double>(
          end.dropped_overflow + end.dropped_inactive -
          start.dropped_overflow - start.dropped_inactive);
      set_end_to_end(result, steps, sent, setup,
                     output_pollution(net, shape.byzantine, shape.event_mode),
                     sent > 0.0 ? dropped / sent : 0.0);
      return result;
    }
  }

  // Traced run of a fresh, identical world through TracedDriver.
  world.reset();
  world = build_world(shape, opts.seed);
  GossipNetwork& net = *world->net;
  std::unique_ptr<TimedAdversary> timed;
  if (world->adversary) {
    timed = std::make_unique<TimedAdversary>(*world->adversary);
    net.set_adversary(timed.get());
  }
  TracedDriver driver(net, timing);
  for (std::size_t i = 0; i < shape.warmup; ++i) {
    driver.run_tick(nullptr, 0, nullptr);
    check_conservation(driver.stats(), driver.in_flight(), checks,
                       shape.name);
  }
  if (timed) timed->reset();
  const EngineStats start = driver.stats();
  const std::uint64_t processed_start = total_processed(net);
  driver.backlog_sum = 0;
  driver.inflight_sum = 0;
  Trace& trace = result.trace;
  StepTimer traced_steps;
  for (std::size_t i = 0; i < result.steps; ++i) {
    traced_steps.start();
    driver.run_tick(&trace, static_cast<std::int64_t>(i), timed.get());
    traced_steps.stop();
    check_conservation(driver.stats(), driver.in_flight(), checks,
                       shape.name);
  }
  traced_steps.finish();
  trace.to_reference();
  const EngineStats& end = driver.stats();
  checks.expect(same_stats(end, untraced_stats) &&
                    driver.in_flight() == untraced_in_flight,
                std::string(shape.name) +
                    ": traced driver EngineStats differ from SimDriver's");
  checks.expect(world_checksum(net, end, driver.in_flight()) ==
                    result.checksum,
                std::string(shape.name) +
                    ": traced checksum differs from untraced");

  const double ticks = static_cast<double>(result.steps);
  const double sent =
      static_cast<double>(end.messages_sent - start.messages_sent);
  const double flushed =
      static_cast<double>(total_processed(net) - processed_start);
  const double tick_ns = trace.total_ns("sim.tick");
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<double> topology_ms, network_ms;
  for (std::size_t k = 0; k + 2 < stamps.size(); k += 3) {
    topology_ms.push_back(reference_ns(stamps[k], stamps[k + 1]) / 1e6);
    network_ms.push_back(reference_ns(stamps[k + 1], stamps[k + 2]) / 1e6);
  }
  auto& m = result.metrics;
  m["sim.topology.build_ms"] = SampleStats::from(topology_ms).median;
  m["sim.network.build_ms"] = SampleStats::from(network_ms).median;
  m["sim.state_bytes_computed"] = static_cast<double>(
      world->instrumented * (shape.width * shape.depth + shape.memory) * 8 +
      net.size() * GossipConfig{}.knowledge_cache * 8);
  m["sim.send.ns_per_id"] = per(trace.self_ns("sim.send"), sent);
  m["sim.deliver.ns_per_id"] =
      per(trace.total_ns("sim.deliver"),
          static_cast<double>(trace.calls("sim.deliver")));
  m["sim.queue.events_per_tick"] =
      static_cast<double>(end.events_processed - start.events_processed) /
      ticks;
  m["sim.queue.peak_depth"] = static_cast<double>(end.peak_queue_depth);
  m["sim.scan.ns_per_tick"] = trace.total_ns("sim.scan") / ticks;
  m["sim.flush.ns_per_id"] = per(trace.total_ns("sim.flush"), flushed);
  m["sim.flush.ids_per_node_mean"] =
      per(flushed / ticks, static_cast<double>(world->instrumented));
  m["sim.backlog.mean_ids"] = static_cast<double>(driver.backlog_sum) / ticks;
  m["sim.inflight.mean_ids"] =
      static_cast<double>(driver.inflight_sum) / ticks;
  m["sim.sent"] = sent;
  m["sim.heard"] =
      static_cast<double>(end.messages_heard - start.messages_heard);
  m["sim.dropped_overflow"] =
      static_cast<double>(end.dropped_overflow - start.dropped_overflow);
  m["sim.dropped_inactive"] =
      static_cast<double>(end.dropped_inactive - start.dropped_inactive);
  m["sim.delivered_frac"] = per(
      static_cast<double>(end.messages_delivered - start.messages_delivered),
      sent);
  m["sim.drop_frac"] =
      per(m["sim.dropped_overflow"] + m["sim.dropped_inactive"], sent);
  m["sim.tick.self_ns"] = trace.self_ns("sim.tick") / ticks;
  if (timed) {
    m["adversary.push.ns_per_id"] =
        per(trace.total_ns("adversary.push"), static_cast<double>(timed->ids));
    m["adversary.ids"] = static_cast<double>(timed->ids);
  }
  m["trace.coverage"] = 1.0 - trace.self_ns("sim.tick") / tick_ns;
  m["trace.overhead_frac"] = tick_ns / 1e9 / steps.ref_total_s() - 1.0;
  return result;
}

}  // namespace

Result run_gossip_rounds(const RunOptions& opts) {
  return run_gossip(rounds_shape(opts), opts);
}

Result run_gossip_event(const RunOptions& opts) {
  return run_gossip(event_shape(opts), opts);
}

}  // namespace ubench
