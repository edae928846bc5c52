// scenario_trials: one figure-style trial per step — ScenarioEngine
// construction plus run() of a defended, phased attack schedule with a
// diurnal honest workload.  Construction is inside the step because a user
// running trials pays it on every trial.  Trials cycle a small set of trial
// seeds, so every repeat of a seed must reproduce its MeasurePoint rows.
//
// Traced run: the constructor and run() are timed.  After each run,
// isolation replays rebuild the topology and the gossip network, feed the
// victim's recorded input into a fresh AttackDetector, and regenerate the
// workload through TraceReplaySource::next_round.  What run() spends beyond
// the replayed detector and workload work stays one named, unattributed
// bucket (scenario.run.rest) until the engine has its own stage timers.
#include <cstring>
#include <memory>
#include <optional>

#include "common.hpp"
#include "core/attack_detector.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "stream/trace_replay.hpp"

namespace ubench {
namespace {

using namespace unisamp;
using scenario::AttackKind;

struct Shape {
  std::size_t trial_seeds;  ///< distinct trials the steps cycle through
  std::size_t nominal_steps;
  std::size_t self_test_steps;
  std::size_t warmup;
  std::size_t setup_reps;
};

// 40 distinct trials, each run 10 times in a 20 s run: a trial's output
// pollution and run time depend on its seed, and a mean over 8 trials moved
// both by about 4% between master seeds.
Shape shape_of(const RunOptions& opts) {
  if (opts.self_test) return {2, 200, 4, 2, 1};
  return {40, 400, 4, 8, 25};
}

std::uint64_t trial_seed(std::uint64_t master, std::size_t trial,
                         const Shape& shape) {
  return derive_seed(master, 100 + trial % shape.trial_seeds);
}

scenario::ScenarioSpec trial_spec(std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.name = "scenario_trials";
  spec.topology.kind = scenario::TopologySpec::Kind::kRandomRegular;
  spec.topology.nodes = 256;
  spec.topology.degree = 4;
  spec.gossip.fanout = 3;
  spec.gossip.seed = seed;
  spec.gossip.byzantine_count = 16;
  spec.gossip.flood_factor = 8;
  spec.gossip.forged_id_count = 32;
  spec.sampler.strategy = Strategy::kDecayingSketch;
  spec.sampler.decay_half_life = 500;
  spec.sampler.memory_size = 16;
  spec.sampler.sketch_width = 10;
  spec.sampler.sketch_depth = 5;
  spec.sampler.record_output = false;
  spec.victim = 255;
  spec.schedule = {
      {AttackKind::kQuiescent, 10, 0.0, 0},
      {AttackKind::kColluding, 30, 0.8, 5},
      {AttackKind::kEstimateProbing, 20, 0.8, 0},
  };
  scenario::DefenseSpec defense;
  defense.detector.window = 256;
  defense.detector.peak_factor = 2.0;
  defense.rekey = scenario::DefenseSpec::RekeyPolicy::kOnDetection;
  defense.rekey_cooldown = 8;
  spec.defense = defense;
  TraceReplayConfig workload;
  workload.kind = TraceReplayConfig::Kind::kDiurnal;
  workload.ids_per_round = 1000;
  workload.domain = 4096;
  workload.period = 16;
  workload.seed = derive_seed(seed, 7);
  spec.workload = workload;
  spec.measure_every = 5;
  return spec;
}

/// Rows ScenarioEngine::run records for the spec's schedule and cadence.
std::size_t expected_rows(const scenario::ScenarioSpec& spec) {
  std::size_t rows = 0, round = 0;
  for (const auto& phase : spec.schedule)
    for (std::size_t r = 0; r < phase.rounds; ++r) {
      ++round;
      if (r + 1 == phase.rounds || round % spec.measure_every == 0) ++rows;
    }
  return rows;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

std::uint64_t report_checksum(const scenario::ScenarioRunReport& report) {
  std::uint64_t acc = kChecksumSeed;
  for (const auto& p : report.points)
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(p.round),
          static_cast<std::uint64_t>(p.phase), bits(p.output_pollution),
          bits(p.victim_output_pollution), bits(p.memory_pollution),
          bits(p.distinct_malicious), static_cast<std::uint64_t>(p.detections),
          static_cast<std::uint64_t>(p.rekeys), p.honest_trace_ids})
      acc = fold(acc, v);
  for (const std::uint64_t v :
       {report.delivered, report.trace_ids_delivered,
        static_cast<std::uint64_t>(report.detector_windows.size()),
        static_cast<std::uint64_t>(report.rekey_rounds.size())})
    acc = fold(acc, v);
  return acc;
}

/// Per-trial verification: the row count the cadence implies, and the
/// rows checksum every earlier trial of the same seed produced.
class TrialChecker {
 public:
  explicit TrialChecker(const Shape& shape) : reference_(shape.trial_seeds) {}

  std::uint64_t check(std::size_t trial, const scenario::ScenarioSpec& spec,
                      const scenario::ScenarioRunReport& report,
                      Checks& checks) {
    checks.expect(report.points.size() == expected_rows(spec),
                  "scenario_trials: unexpected MeasurePoint row count");
    const std::uint64_t sum = report_checksum(report);
    auto& ref = reference_[trial % reference_.size()];
    if (ref) {
      checks.expect(*ref == sum,
                    "scenario_trials: a repeated trial seed changed its rows");
    } else {
      ref = sum;
    }
    return sum;
  }

 private:
  std::vector<std::optional<std::uint64_t>> reference_;
};

}  // namespace

Result run_scenario_trials(const RunOptions& opts) {
  const Shape shape = shape_of(opts);
  Result result;
  result.warmup = shape.warmup;
  result.steps = step_count(opts, shape.nominal_steps, shape.self_test_steps);
  Checks& checks = result.checks;
  TrialChecker checker(shape);

  // Set-up: the warm-up trials' specs and engines, built several times
  // (median reported); warm-up then runs the last set once, untimed.
  std::vector<std::unique_ptr<scenario::ScenarioEngine>> engines;
  StepTimer setup;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    engines.clear();
    setup.start();
    for (std::size_t t = 0; t < shape.warmup; ++t)
      engines.push_back(std::make_unique<scenario::ScenarioEngine>(
          trial_spec(trial_seed(opts.seed, t, shape))));
    setup.stop();
  }
  setup.finish();
  for (std::size_t t = 0; t < engines.size(); ++t)
    checker.check(t, engines[t]->spec(), engines[t]->run(), checks);
  engines.clear();

  StepTimer steps;
  double ids = 0.0, pollution = 0.0;
  std::uint64_t checksum = kChecksumSeed;
  for (std::size_t t = 0; t < result.steps; ++t) {
    const scenario::ScenarioSpec spec = trial_spec(trial_seed(opts.seed, t, shape));
    steps.start();
    scenario::ScenarioEngine engine(spec);
    const scenario::ScenarioRunReport report = engine.run();
    steps.stop();
    checksum = fold(checksum, checker.check(t, spec, report, checks));
    ids += static_cast<double>(report.delivered + report.trace_ids_delivered);
    pollution += report.points.back().output_pollution;
  }
  steps.finish();
  result.checksum = checksum;

  if (!opts.traced) {
    set_end_to_end(result, steps, ids, setup,
                   pollution / static_cast<double>(result.steps), 0.0);
    return result;
  }

  // Traced trials, then isolation replays of each one outside its step.
  Trace& trace = result.trace;
  std::uint64_t traced_checksum = kChecksumSeed;
  double detector_ids = 0.0, replay_ids = 0.0, windows = 0.0, alarms = 0.0,
         rekeys = 0.0;
  Stream workload_ids, detector_feed;
  StepTimer traced_steps;
  for (std::size_t t = 0; t < result.steps; ++t) {
    const auto s = static_cast<std::int64_t>(t);
    const scenario::ScenarioSpec spec = trial_spec(trial_seed(opts.seed, t, shape));
    const std::int64_t t0 = now_ns();
    scenario::ScenarioEngine engine(spec);
    const std::int64_t t1 = now_ns();
    const scenario::ScenarioRunReport report = engine.run();
    const std::int64_t t2 = now_ns();
    trace.add("step", "", s, t0, t2);
    trace.add("scenario.build", "step", s, t0, t1);
    trace.add("scenario.run", "step", s, t1, t2);
    traced_checksum =
        fold(traced_checksum, checker.check(t, spec, report, checks));
    windows += static_cast<double>(report.detector_windows.size());
    for (const WindowReport& w : report.detector_windows)
      alarms += w.signal != AttackSignal::kNone ? 1.0 : 0.0;
    rekeys += static_cast<double>(report.rekey_rounds.size());

    // Topology and network construction, as the constructor does them.
    const std::int64_t t3 = now_ns();
    Topology topology = spec.topology.build(spec.gossip.seed);
    const std::int64_t t4 = now_ns();
    const GossipNetwork net(std::move(topology), spec.gossip, spec.sampler);
    const std::int64_t t5 = now_ns();
    trace.add("sim.topology.replay", "", s, t3, t4);
    trace.add("sim.network.replay", "", s, t4, t5);

    // The honest workload, regenerated round by round.
    std::size_t rounds = 0;
    for (const auto& phase : spec.schedule) rounds += phase.rounds;
    std::vector<std::size_t> round_end;
    workload_ids.clear();
    const std::int64_t t6 = now_ns();
    TraceReplaySource source(*spec.workload);
    for (std::size_t r = 0; r < rounds; ++r) {
      source.next_round(workload_ids);
      round_end.push_back(workload_ids.size());
    }
    const std::int64_t t7 = now_ns();
    trace.add("stream.replay", "", s, t6, t7);
    checks.expect(workload_ids.size() == report.trace_ids_delivered,
                  "scenario_trials: workload replay differs from "
                  "trace_ids_delivered");
    replay_ids += static_cast<double>(workload_ids.size());

    // The detector's input: the victim's recorded gossip input, then its
    // round-robin share of every workload batch (the engine interleaves
    // the two per round; the window count depends only on the total).
    const GossipNetwork& ran = engine.network();
    std::vector<std::size_t> targets;
    for (std::size_t i = spec.gossip.byzantine_count; i < ran.size(); ++i)
      if (ran.has_service(i) && ran.is_active(i)) targets.push_back(i);
    std::size_t victim_rank = 0;
    while (targets[victim_rank] != spec.victim) ++victim_rank;
    const Stream& victim_in = ran.input_stream(spec.victim);
    detector_feed.assign(victim_in.begin(), victim_in.end());
    std::size_t begin = 0;
    for (const std::size_t end : round_end) {
      for (std::size_t j = begin + victim_rank; j < end; j += targets.size())
        detector_feed.push_back(workload_ids[j]);
      begin = end;
    }
    const std::int64_t t8 = now_ns();
    AttackDetector detector(spec.defense->detector);
    for (const NodeId id : detector_feed) detector.observe(id);
    const std::int64_t t9 = now_ns();
    trace.add("core.detector.replay", "", s, t8, t9);
    checks.expect(detector.history().size() == report.detector_windows.size(),
                  "scenario_trials: detector replay window count differs");
    detector_ids += static_cast<double>(detector_feed.size());
    traced_steps.record(t0, t9);
  }
  traced_steps.finish();
  trace.to_reference();
  checks.expect(traced_checksum == result.checksum,
                "scenario_trials: traced checksum differs from untraced");

  const double trials = static_cast<double>(result.steps);
  const double step_ns = trace.total_ns("step");
  const double run_ns = trace.total_ns("scenario.run");
  const double detector_ns = trace.total_ns("core.detector.replay");
  const double stream_ns = trace.total_ns("stream.replay");
  const double rest_ns = run_ns - detector_ns - stream_ns;
  auto& m = result.metrics;
  m["core.detector.ns_per_id"] = detector_ns / detector_ids;
  m["core.detector.windows"] = windows / trials;
  m["core.detector.alarm_frac"] = windows > 0.0 ? alarms / windows : 0.0;
  m["core.rekeys"] = rekeys / trials;
  m["sim.topology.build_ms"] =
      trace.total_ns("sim.topology.replay") / 1e6 / trials;
  m["sim.network.build_ms"] =
      trace.total_ns("sim.network.replay") / 1e6 / trials;
  m["stream.replay.ns_per_id"] = stream_ns / replay_ids;
  m["scenario.build.us_per_trial"] =
      trace.total_ns("scenario.build") / 1e3 / trials;
  m["scenario.run.us_per_trial"] = run_ns / 1e3 / trials;
  m["scenario.run.rest_us_per_trial"] = rest_ns / 1e3 / trials;
  m["trace.coverage"] = 1.0 - (rest_ns + trace.self_ns("step")) / step_ns;
  m["trace.overhead_frac"] = step_ns / 1e9 / steps.ref_total_s() - 1.0;
  return result;
}

}  // namespace ubench
