#include "scenario/engine.hpp"

#include <stdexcept>
#include <string>

#include "adversary/adaptive.hpp"
#include "sim/churn.hpp"

namespace unisamp::scenario {

namespace {
ScenarioSpec validated(ScenarioSpec spec) {
  validate(spec);
  // The defense leg reads the victim's recorded input stream, so force the
  // recording on.  Recording is passive (no RNG, no knowledge-cache or
  // delivery effect), which is what the DefenseSpec neutrality contract
  // rests on: presence of the section alone changes nothing downstream.
  if (spec.defense) spec.gossip.record_inputs = true;
  return spec;
}

// Builds the overlay, applies the byzantine placement (relabelling the
// chosen positions to the front so GossipConfig's first-b-nodes-are-
// byzantine convention holds unchanged), and asserts the paper's standing
// assumption: the CORRECT nodes are weakly connected at T0 (Sec. III-C).
// Randomized families — erdos_renyi in particular — do not guarantee this,
// so a bad (seed, p) pair fails loudly here instead of silently running an
// experiment whose premises are void.  The check reads no RNG, so specs
// that pass are bit-identical to runs without it.
Topology build_world(const ScenarioSpec& spec) {
  Topology topo = spec.topology.build(spec.gossip.seed);
  if (spec.placement.kind != PlacementSpec::Kind::kDefault) {
    topo = topo.front_loaded(
        placement_nodes(topo, spec.gossip.byzantine_count, spec.placement));
  }
  std::vector<std::uint32_t> correct;
  correct.reserve(topo.size() - spec.gossip.byzantine_count);
  for (std::size_t i = spec.gossip.byzantine_count; i < topo.size(); ++i)
    correct.push_back(static_cast<std::uint32_t>(i));
  if (!topo.is_connected_among(correct))
    throw std::invalid_argument(
        spec.name +
        ": correct nodes are not weakly connected at T0 (the paper's "
        "Sec. III-C assumption) — raise connectivity (degree / "
        "edge_probability), change the seed, or relax the placement");
  return topo;
}
}  // namespace

ScenarioEngine::ScenarioEngine(ScenarioSpec spec)
    : spec_(validated(std::move(spec))),
      // Built here, not in run(), so a bad detector config fails before
      // the network is.  Its coins are its own (config.seed), never the
      // network's, so a detector that observes but never triggers a rekey
      // leaves the run bit-identical.
      detector_(spec_.defense ? std::optional<AttackDetector>(
                                    spec_.defense->detector)
                              : std::nullopt),
      net_(build_world(spec_), spec_.gossip, spec_.sampler),
      malicious_floor_(static_cast<NodeId>(spec_.topology.nodes) +
                       (1ULL << 32)),
      malicious_flags_(spec_.gossip.forged_id_count + 1, 0),
      distinct_malicious_(spec_.gossip.byzantine_count),
      next_sybil_base_(malicious_floor_ +
                       static_cast<NodeId>(spec_.gossip.forged_id_count)) {
  // The baseline malicious population: the byzantine members' own ids
  // (what they push when no forged pool exists, counted above) plus the
  // static pool.
  note_malicious(net_.forged_ids());
}

void ScenarioEngine::note_malicious(std::span<const NodeId> ids) {
  for (const NodeId id : ids) {
    if (id < spec_.gossip.byzantine_count) continue;  // counted from the start
    const NodeId i = id - malicious_floor_;
    if (id < malicious_floor_ || i >= malicious_flags_.size() - 1)
      throw std::logic_error(
          "scenario: malicious id " + std::to_string(id) +
          " outside the byzantine labels and the forged/minted ranges");
    distinct_malicious_ += malicious_flags_[i] == 0;
    malicious_flags_[i] = 1;
  }
}

namespace {
// Clears the network's non-owning adversary pointer even when a round
// throws mid-phase (e.g. an omniscient sampler fed a forged id) — the
// phase-local adversary is destroyed on unwind and must not stay
// installed.  Declared after the adversary at the installation site, so
// it runs first.
struct AdversaryGuard {
  GossipNetwork& net;
  ~AdversaryGuard() { net.set_adversary(nullptr); }
};
}  // namespace

SybilChurnConfig ScenarioEngine::reserve_sybil_mint(const AttackPhase& phase) {
  SybilChurnConfig cfg;
  // A live pool the size of the static one, minted ABOVE it so fresh
  // identities never collide with real nodes or the static forged ids.
  cfg.pool_size = std::max<std::size_t>(spec_.gossip.forged_id_count, 1);
  cfg.rotate_every = phase.rotate_every;
  cfg.flood_factor = spec_.gossip.flood_factor;
  cfg.first_forged_id = next_sybil_base_;
  // Reserve this phase's whole mint range (initial pool + one per
  // rotation) so a LATER churn phase starts on genuinely fresh ids —
  // re-minting warm identities would undercut both the attack and the
  // Sybil bill it is supposed to pay.
  const std::size_t rotations =
      phase.rotate_every > 0 && phase.rounds > 0
          ? (phase.rounds - 1) / phase.rotate_every
          : 0;
  next_sybil_base_ += static_cast<NodeId>(cfg.pool_size * (1 + rotations));
  malicious_flags_.resize(next_sybil_base_ - malicious_floor_ + 1, 0);
  return cfg;
}

std::unique_ptr<RoundAdversary> ScenarioEngine::make_adversary(
    const AttackPhase& phase) {
  const std::vector<NodeId>& pool = net_.forged_ids();
  switch (phase.kind) {
    case AttackKind::kQuiescent:
      return std::make_unique<QuiescentAdversary>();
    case AttackKind::kStaticFlood:
      return std::make_unique<StaticFloodAdversary>(
          pool, spec_.gossip.flood_factor);
    case AttackKind::kEstimateProbing:
      return std::make_unique<EstimateProbingAdversary>(
          pool, ProbingFloodConfig{spec_.victim, spec_.gossip.flood_factor,
                                   phase.intensity});
    case AttackKind::kEclipseFlood:
      return std::make_unique<EclipseFloodAdversary>(
          pool, EclipseConfig{spec_.victim, spec_.gossip.flood_factor,
                              phase.intensity});
    case AttackKind::kSybilChurn:
      return std::make_unique<SybilChurnAdversary>(reserve_sybil_mint(phase));
    case AttackKind::kColluding:
      // Both legs at once: the eclipse leg reuses the static pool, the
      // churn leg mints like a plain kSybilChurn phase.
      return std::make_unique<ColludingAdversary>(
          pool, ColludingConfig{EclipseConfig{spec_.victim,
                                              spec_.gossip.flood_factor,
                                              phase.intensity},
                                reserve_sybil_mint(phase)});
  }
  throw std::invalid_argument("unknown attack kind");
}

MeasurePoint ScenarioEngine::measure(std::size_t round,
                                     std::size_t phase) const {
  MeasurePoint point;
  point.round = round;
  point.phase = phase;
  double bad = 0.0, total = 0.0;
  double victim_bad = 0.0, victim_total = 0.0;
  double mem_bad = 0.0, mem_total = 0.0;
  for (std::size_t i = spec_.gossip.byzantine_count; i < net_.size(); ++i) {
    if (!net_.has_service(i)) continue;  // off the observer stride
    const SamplingService& service = net_.service(i);
    const FrequencyHistogram& hist = service.output_histogram();
    const double node_bad = static_cast<double>(
        hist.count_if([this](NodeId id) { return is_malicious(id); }));
    bad += node_bad;
    total += static_cast<double>(hist.total());
    if (i == spec_.victim) {
      victim_bad = node_bad;
      victim_total = static_cast<double>(hist.total());
    }
    for (const NodeId id : service.sampler().memory()) {
      mem_total += 1.0;
      mem_bad += static_cast<double>(is_malicious(id));
    }
  }
  point.output_pollution = total > 0.0 ? bad / total : 0.0;
  point.victim_output_pollution =
      victim_total > 0.0 ? victim_bad / victim_total : 0.0;
  point.memory_pollution = mem_total > 0.0 ? mem_bad / mem_total : 0.0;
  point.distinct_malicious = static_cast<double>(distinct_malicious_);
  return point;
}

ScenarioRunReport ScenarioEngine::run() {
  if (ran_) throw std::logic_error("ScenarioEngine::run is one-shot");
  ran_ = true;
  ScenarioRunReport report;
  // One driver spans the whole experiment; under an event TimingSpec this
  // keeps in-flight ids alive across churn and phase boundaries.
  SimDriver driver(net_, spec_.timing ? spec_.timing->build(spec_.gossip.seed)
                                      : TimingModel::rounds());
  if (spec_.churn) {
    // Pre-T0: the built-in static byzantine behaviour runs during churn
    // (the schedule models the POST-stabilisation attack campaign).
    report.churn_events = run_churn_phase(driver, *spec_.churn);
  }
  // Defense-loop state.
  std::size_t victim_fed = 0;       // victim input-stream prefix observed
  std::size_t alarmed_windows = 0;  // closed windows with a non-kNone signal
  std::size_t last_rekey_round = 0;
  bool any_rekey = false;
  // Workload state: one honest-traffic batch per round, dealt round-robin.
  std::optional<TraceReplaySource> workload;
  if (spec_.workload) workload.emplace(*spec_.workload);
  std::uint64_t trace_ids = 0;
  Stream batch, node_share, victim_share;
  std::vector<std::size_t> feed_targets;
  std::size_t round = 0;  // post-T0 round counter (churn rounds excluded)
  for (std::size_t p = 0; p < spec_.schedule.size(); ++p) {
    const AttackPhase& phase = spec_.schedule[p];
    const std::unique_ptr<RoundAdversary> adversary = make_adversary(phase);
    const AdversaryGuard guard{net_};  // destroyed before `adversary`
    net_.set_adversary(adversary.get());
    for (std::size_t r = 0; r < phase.rounds; ++r) {
      driver.run_ticks(1);
      note_malicious(adversary->malicious_ids());
      ++round;
      // Honest workload: deal this round's batch round-robin across the
      // instrumented active correct nodes (per-node contiguous slices
      // through the batched ingest path).  Only per-node sampler state is
      // touched — no network RNG, knowledge cache, or delivery counter —
      // so the gossip evolution is unchanged by the feed.
      victim_share.clear();
      if (workload) {
        batch.clear();
        workload->next_round(batch);
        feed_targets.clear();
        for (std::size_t i = spec_.gossip.byzantine_count; i < net_.size();
             ++i)
          if (net_.has_service(i) && net_.is_active(i))
            feed_targets.push_back(i);
        if (!batch.empty() && !feed_targets.empty()) {
          for (std::size_t t = 0; t < feed_targets.size(); ++t) {
            node_share.clear();
            for (std::size_t j = t; j < batch.size();
                 j += feed_targets.size())
              node_share.push_back(batch[j]);
            if (node_share.empty()) continue;
            net_.service(feed_targets[t]).on_receive_stream(node_share);
            trace_ids += node_share.size();
            if (feed_targets[t] == spec_.victim)
              victim_share = node_share;  // the detector sees it below
          }
        }
      }
      // Detection: run the victim's traffic since the last round — its
      // recorded gossip input suffix, then its workload share — through
      // the tumbling-window detector.
      bool alarmed = false;
      if (detector_) {
        const auto feed = [&](const NodeId id) {
          if (const auto window = detector_->observe(id)) {
            report.detector_windows.push_back(*window);
            if (window->signal != AttackSignal::kNone) {
              ++alarmed_windows;
              alarmed = true;
            }
          }
        };
        const Stream& victim_in = net_.input_stream(spec_.victim);
        for (; victim_fed < victim_in.size(); ++victim_fed)
          feed(victim_in[victim_fed]);
        for (const NodeId id : victim_share) feed(id);
        if (alarmed) report.detection_rounds.push_back(round);
      }
      // Response: ONE coalesced rekey per alarmed round (however many
      // windows closed), gated by the cooldown and the rekey budget.
      // Every instrumented sampler rotates to a fresh derived seed, so
      // the whole population forgets the attacker's accumulated counters
      // at once instead of leaking through un-rekeyed neighbours.
      if (alarmed && spec_.defense->rekey == DefenseSpec::RekeyPolicy::kOnDetection &&
          (!any_rekey ||
           round > last_rekey_round + spec_.defense->rekey_cooldown) &&
          (spec_.defense->max_rekeys == 0 ||
           report.rekey_rounds.size() < spec_.defense->max_rekeys)) {
        const std::uint64_t rekey_seed = derive_seed(
            spec_.gossip.seed, 0xDEF0 + report.rekey_rounds.size());
        for (std::size_t i = spec_.gossip.byzantine_count; i < net_.size();
             ++i)
          if (net_.has_service(i))
            net_.service(i).rekey_sampler(derive_seed(rekey_seed, i));
        last_rekey_round = round;
        any_rekey = true;
        report.rekey_rounds.push_back(round);
      }
      const bool phase_end = r + 1 == phase.rounds;
      const bool cadence_hit =
          spec_.measure_every > 0 && round % spec_.measure_every == 0;
      if (phase_end || cadence_hit) {
        MeasurePoint point = measure(round, p);
        point.detections = alarmed_windows;
        point.rekeys = report.rekey_rounds.size();
        point.honest_trace_ids = trace_ids;
        report.points.push_back(point);
      }
    }
  }
  report.trace_ids_delivered = trace_ids;
  report.delivered = net_.delivered();
  report.dropped_overflow = driver.stats().dropped_overflow;
  report.dropped_inactive = driver.stats().dropped_inactive;
  report.peak_inbox_backlog = driver.stats().peak_inbox_backlog;
  report.in_flight_at_end = driver.in_flight_messages();
  return report;
}

}  // namespace unisamp::scenario
