// Declarative scenario specifications for the adaptive-adversary engine.
//
// A ScenarioSpec composes the four orthogonal axes of a network experiment
// into one value the engine (engine.hpp) can run end-to-end:
//
//   topology  x  churn schedule  x  sampler strategy  x  attack schedule
//
// The attack schedule is a sequence of phases, each installing one of the
// RoundAdversary strategies from adversary/adaptive.hpp for a number of
// rounds — so a single spec can express "calm network, then a static
// flood, then the adversary adapts, then it churns identities", which the
// paper's fixed-stream model (Sec. V) cannot.  Everything is a plain
// aggregate: a spec is data, diffable and trivially embeddable in figure
// definitions (bench/) and examples.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/attack_detector.hpp"
#include "core/sampling_service.hpp"
#include "sim/churn.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "stream/trace_replay.hpp"

namespace unisamp::scenario {

/// Which overlay family the network runs on (Sec. III-C only requires weak
/// connectivity; the family is an experimental axis).  The structured
/// datacenter families (torus / dragonfly / fat-tree) are deterministic in
/// their parameters — the seed only feeds the randomized overlay families —
/// and `nodes` must equal the count the parameters derive to (validate()
/// rejects a mismatch rather than silently resizing).
struct TopologySpec {
  enum class Kind {
    kComplete,
    kRing,
    kErdosRenyi,
    kRandomRegular,
    kSmallWorld,
    kTorus,
    kDragonfly,
    kFatTree,
  };

  Kind kind = Kind::kComplete;
  std::size_t nodes = 40;
  std::size_t degree = 4;  ///< ring k / random-regular d / small-world k
  double beta = 0.1;       ///< small-world rewire probability
  double edge_probability = 0.1;  ///< erdos-renyi p

  /// Torus dimensions (each >= 2, product == nodes); dimension 0 fastest.
  std::vector<std::size_t> torus_dims;
  /// Dragonfly shape: a routers per group, h global links per router, p
  /// terminals per router; (a*h + 1) * a * (p + 1) == nodes.
  std::size_t dragonfly_routers = 0;
  std::size_t dragonfly_globals = 0;
  std::size_t dragonfly_terminals = 0;
  /// Fat-tree parameter k (even); k*((k/2)^2 + k) + (k/2)^2 == nodes.
  std::size_t fat_tree_k = 0;

  /// Materializes the overlay; `seed` feeds the randomized families.
  Topology build(std::uint64_t seed) const;
};

std::string_view to_string(TopologySpec::Kind kind);

/// Where the byzantine population sits in the topology's structure.  The
/// engine relabels the chosen positions to the front of the index space
/// (Topology::front_loaded) so GossipConfig's first-b-nodes-are-byzantine
/// convention is untouched.  kDefault keeps the historical identity layout
/// (indices [0, b) as built) and is the only kind valid on unstructured
/// topologies.
struct PlacementSpec {
  enum class Kind {
    kDefault,      ///< first b node indices, as built (no relabelling)
    kScattered,    ///< round-robin across groups: one per group, then seconds
    kSingleGroup,  ///< fill group `target` (wrapping into target+1, ... if b
                   ///< exceeds the group), in index order
    kSingleRow,    ///< same, over rows (torus line / dragonfly router's
                   ///< terminals / fat-tree rack)
  };

  Kind kind = Kind::kDefault;
  /// kSingleGroup / kSingleRow: which group/row to concentrate in.
  std::size_t target = 0;
};

std::string_view to_string(PlacementSpec::Kind kind);

/// Picks the `count` byzantine positions the placement policy assigns on
/// `topo` (deterministic; no RNG).  Throws std::invalid_argument for a
/// non-default kind on an unstructured topology or an out-of-range target.
std::vector<std::uint32_t> placement_nodes(const Topology& topo,
                                           std::size_t count,
                                           const PlacementSpec& placement);

/// Which adversary strategy a schedule phase installs.
enum class AttackKind {
  kQuiescent,        ///< byzantine members stay silent
  kStaticFlood,      ///< the paper's static Sybil flood (Sec. III-B)
  kEstimateProbing,  ///< flood focused on the victim's under-counted ids
  kEclipseFlood,     ///< flood concentrated on the victim's neighbourhood
  kSybilChurn,       ///< forged pool re-minted on a rotation schedule
  kColluding,        ///< eclipse + Sybil churn running simultaneously
};

std::string_view to_string(AttackKind kind);

/// One phase of the attack schedule.
struct AttackPhase {
  AttackKind kind = AttackKind::kStaticFlood;
  std::size_t rounds = 0;
  /// Strategy knob: probing focus probability / eclipse concentration,
  /// in [0, 1].  0 degenerates every adaptive strategy to the static
  /// flood (bit-identically — differential-tested).
  double intensity = 0.0;
  /// Sybil churn only: rounds between identity rotations (0 = never).
  std::size_t rotate_every = 0;
};

/// Optional timing section: how delivery time behaves.  Absent — or
/// present with kind kRounds — keeps the degenerate lockstep config, so
/// every committed spec and its checksums are unchanged.  kEvent runs the
/// scenario through the discrete-event engine with a deterministic
/// per-link latency distribution, bounded per-node inboxes, and
/// bandwidth-limited tick flushes (sim/driver.hpp).  Latency knobs are in
/// ROUNDS (1.0 = one tick of virtual time).
struct TimingSpec {
  enum class Kind { kRounds, kEvent };
  enum class LatencyKind { kSynchronized, kUniform, kBimodal };

  Kind kind = Kind::kRounds;

  /// Event mode only: per-link latency distribution.
  LatencyKind latency = LatencyKind::kSynchronized;
  double latency_base = 0.0;    ///< minimum transit (rounds)
  double latency_spread = 0.0;  ///< uniform per-link extra in [0, spread]
  double far_fraction = 0.0;    ///< bimodal: share of links that are "far"
  double far_extra = 0.0;       ///< bimodal: extra transit on far links

  /// Event mode only: per-node pending-inbox cap (0 = unbounded) and ids
  /// drained per node per round (0 = infinite bandwidth).
  std::size_t inbox_capacity = 0;
  std::size_t bandwidth_per_round = 0;

  /// Lowers to the engine-level TimingModel; `seed` keys the per-link
  /// latency hash (derived, so it never collides with protocol streams).
  TimingModel build(std::uint64_t seed) const;
};

std::string_view to_string(TimingSpec::Kind kind);

/// Optional in-loop defense section: the engine feeds the victim's input
/// stream through an AttackDetector as rounds run and — under
/// RekeyPolicy::kOnDetection — responds to an alarmed window by rotating
/// every instrumented sampler's sketch coefficients (NodeSampler::rekey)
/// with fresh derived seeds.  Rekeying zeroes the sketch counters, so the
/// forged pool's accumulated frequency estimates are forgotten and the
/// attacker is thrown back to the cold-sketch regime it already paid to
/// escape; honest heavy hitters re-establish themselves from live traffic.
///
/// Neutrality contract: a spec with `defense` present but rekey = kNone
/// (detector-only), or with thresholds no window can cross, runs the
/// network BIT-IDENTICALLY to the same spec without a defense section —
/// the detector reads only recorded input streams (no service or network
/// RNG), and a rekey that never fires perturbs nothing.  The engine's
/// differential tests pin this down.
struct DefenseSpec {
  enum class RekeyPolicy {
    kNone,         ///< detect and report only; never touch the samplers
    kOnDetection,  ///< rekey all instrumented samplers when a window alarms
  };

  /// Tumbling-window detector over the victim's input stream.  Note the
  /// window is in IDS, not rounds: with flood_factor f, degree d ids reach
  /// the victim per round, so a window of w ids closes every ~w/(f*d)
  /// rounds — size it to the detection latency the scenario wants.
  DetectorConfig detector;
  RekeyPolicy rekey = RekeyPolicy::kNone;
  /// kOnDetection: rounds that must pass after a rekey before the next one
  /// may fire (0 = every alarmed round may rekey) and a cap on total
  /// rekeys across the run (0 = unlimited).  Must both be 0 under kNone.
  std::size_t rekey_cooldown = 0;
  std::size_t max_rekeys = 0;
};

std::string_view to_string(DefenseSpec::RekeyPolicy policy);

/// The full declarative scenario.
struct ScenarioSpec {
  std::string name = "scenario";
  TopologySpec topology;
  /// Byzantine placement over the topology's structure (structured
  /// topologies only for non-default kinds).
  PlacementSpec placement;
  /// Gossip parameters; `gossip.seed` is the master seed of the whole run
  /// (topology build, per-node service coins, network RNG).
  GossipConfig gossip;
  ServiceConfig sampler;
  /// Optional pre-T0 churn phase (runs before the attack schedule; the
  /// paper's model stabilises membership at T0, Sec. III-C).
  std::optional<ChurnConfig> churn;
  /// Optional timing semantics; absent = degenerate rounds config.
  std::optional<TimingSpec> timing;
  /// Optional in-loop defense (detector + rekey policy); absent = the
  /// historical run-blind engine.  Presence forces gossip.record_inputs
  /// (the detector reads the victim's recorded input stream), which has no
  /// RNG effect — see the DefenseSpec neutrality contract.
  std::optional<DefenseSpec> defense;
  /// Optional honest-traffic workload: each round, one TraceReplaySource
  /// batch is dealt round-robin across the instrumented correct nodes, on
  /// top of (and independent from) the gossip exchange.  Ids must sit
  /// above kHonestTraceIdBase so they never collide with node ids or any
  /// forged/minted pool.
  std::optional<TraceReplayConfig> workload;
  /// The correct node the probing/eclipse strategies aim at and the
  /// per-victim metrics track.
  std::size_t victim = 0;
  std::vector<AttackPhase> schedule;
  /// Rounds between metric rows inside a phase; 0 = one row at each phase
  /// end only.
  std::size_t measure_every = 0;
};

/// Validates the rules that need the whole spec: `nodes` equals the count
/// the topology parameters derive to (Topology::torus_size and friends);
/// the victim is a correct node instrumented under observer_stride; the
/// schedule is non-empty with positive rounds, intensities in [0, 1], a
/// forged pool behind flooding phases and no lone colluding member;
/// timing and rekey knobs match their kind and policy; the workload passes
/// its own validate() above kHonestTraceIdBase.  Throws
/// std::invalid_argument.  The overlay builders, placement_nodes and
/// AttackDetector own every other rule, and ScenarioEngine's constructor
/// runs them, as it does the seed-dependent check that the correct nodes
/// are weakly connected at T0 (Sec. III-C; erdos_renyi does not promise it).
void validate(const ScenarioSpec& spec);

}  // namespace unisamp::scenario
