// Scenario engine: runs a declarative ScenarioSpec end-to-end.
//
// Construction builds the defense section's detector, the overlay and the
// gossip network; run() constructs ONE SimDriver for the whole experiment
// (degenerate rounds config unless the spec carries an event TimingSpec),
// executes the optional pre-T0 churn phase as timestamped join/leave
// events, then the attack schedule, installing the right RoundAdversary
// (adversary/adaptive.hpp) for each phase and recording a deterministic
// metrics row at every measure point.
// In event mode the driver persists across phases, so ids still in flight
// when a phase ends arrive during the next one.
//
// Two optional legs close the loop around the sampler:
//  * defense (spec.defense): after every round the victim's input-stream
//    suffix runs through an AttackDetector; under RekeyPolicy::kOnDetection
//    an alarmed window triggers ONE coalesced rekey of every instrumented
//    sampler (fresh derived seeds), subject to cooldown and budget.  With
//    the policy at kNone — or thresholds no window crosses — the network
//    evolution is bit-identical to a spec without the section.
//  * workload (spec.workload): every round a TraceReplaySource batch is
//    dealt round-robin across instrumented active correct nodes and
//    ingested through on_receive_stream, on top of the gossip exchange.
//    The feed touches no network RNG or knowledge cache, so the gossip
//    evolution (deliveries, sends, adversary draws) is unchanged by it.
//
// A
// scenario is simultaneously a workload (rounds through the batched gossip
// hot path), a reproducible figure (rows are checksummable — the bench/
// adaptive artefacts are thin wrappers over this class) and a regression
// surface (the figure-perf CI gate).
//
// Contracts:
//  - Determinism: run() output is a pure function of the spec.  Metrics
//    only read RNG-free state (output histograms, sampler memories) —
//    SamplingService::sample() is never called — so measuring does not
//    perturb the run, and any measure_every cadence observes the same
//    network evolution.
//  - One-shot: run() may be called once; the network is consumed by it.
//  - Thread-safety: none; one engine per thread.  (Trial averaging across
//    engines parallelizes fine — each owns its world.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/adaptive.hpp"
#include "scenario/spec.hpp"
#include "sim/gossip.hpp"

namespace unisamp::scenario {

/// One metrics row.
struct MeasurePoint {
  std::size_t round = 0;  ///< post-T0 rounds completed at measurement time
  std::size_t phase = 0;  ///< schedule phase index
  /// Malicious share of all correct nodes' output streams (cumulative).
  double output_pollution = 0.0;
  /// Same, restricted to the victim.
  double victim_output_pollution = 0.0;
  /// Malicious share of the correct nodes' current sample memories Γ.
  double memory_pollution = 0.0;
  /// Distinct malicious identifiers used so far — the Sybil bill.
  double distinct_malicious = 0.0;
  /// Defense accounting (0 without a defense section): detector windows
  /// that alarmed, and sampler rekeys fired, up to this row (cumulative).
  std::size_t detections = 0;
  std::size_t rekeys = 0;
  /// Honest workload ids delivered so far (0 without a workload section).
  std::uint64_t honest_trace_ids = 0;
};

struct ScenarioRunReport {
  std::vector<MeasurePoint> points;  ///< in measurement order
  std::size_t churn_events = 0;      ///< pre-T0 join/leave toggles
  std::uint64_t delivered = 0;       ///< total ids delivered to correct nodes
  /// Event-timing accounting (all 0 under the degenerate rounds config).
  std::uint64_t dropped_overflow = 0;   ///< ids tail-dropped at full inboxes
  std::uint64_t dropped_inactive = 0;   ///< ids addressed to churned-out nodes
  std::uint64_t peak_inbox_backlog = 0; ///< deepest pending inbox seen
  std::uint64_t in_flight_at_end = 0;   ///< ids still in transit at the end
  /// Defense accounting (empty/0 without a defense section).
  std::vector<std::size_t> detection_rounds;  ///< rounds with >= 1 alarm
  std::vector<std::size_t> rekey_rounds;      ///< rounds a rekey fired
  std::vector<WindowReport> detector_windows; ///< every closed window
  /// Honest workload ids delivered (0 without a workload section).
  std::uint64_t trace_ids_delivered = 0;
};

class ScenarioEngine {
 public:
  /// Validates the spec (scenario::validate), builds the detector, the
  /// overlay and the network; a rule any of them owns throws
  /// std::invalid_argument here, before any round runs.
  explicit ScenarioEngine(ScenarioSpec spec);

  /// Executes churn + the attack schedule; one-shot.
  ScenarioRunReport run();

  /// The underlying network (e.g. for post-run inspection in tests).
  const GossipNetwork& network() const { return net_; }
  GossipNetwork& network() { return net_; }

  const ScenarioSpec& spec() const { return spec_; }

 private:
  std::unique_ptr<RoundAdversary> make_adversary(const AttackPhase& phase);
  /// The churn leg of a kSybilChurn or kColluding phase, minted from
  /// next_sybil_base_, which moves past the phase's whole mint range.
  SybilChurnConfig reserve_sybil_mint(const AttackPhase& phase);
  /// Flags ids as malicious, counting each once.  Throws std::logic_error
  /// for an id outside both malicious ranges (see malicious_flags_).
  void note_malicious(std::span<const NodeId> ids);
  /// Branch-free membership test: a byzantine label, or a flagged id.  An
  /// id outside the flagged range saturates onto the zero sentinel.
  bool is_malicious(NodeId id) const {
    const NodeId i = std::min<NodeId>(id - malicious_floor_,
                                      malicious_flags_.size() - 1);
    return (id < spec_.gossip.byzantine_count) | (malicious_flags_[i] != 0);
  }
  MeasurePoint measure(std::size_t round, std::size_t phase) const;

  ScenarioSpec spec_;
  std::optional<AttackDetector> detector_;  ///< present iff spec_.defense
  GossipNetwork net_;
  // The malicious ids seen so far lie in two ranges.  The byzantine
  // members' own labels [0, byzantine_count) are malicious from the start.
  // Every other one lies in [malicious_floor_, next_sybil_base_): the static
  // forged pool (nodes + 2^32 upward), then each range reserve_sybil_mint
  // hands out.  malicious_flags_ holds one byte per id of that range, set
  // once note_malicious has seen the id, plus one zero sentinel at the end:
  // at most one byte per id a churn leg mints, whose adversary holds eight.
  NodeId malicious_floor_;
  std::vector<std::uint8_t> malicious_flags_;
  std::size_t distinct_malicious_;
  // Next fresh identity for a kSybilChurn phase: advanced past each churn
  // phase's whole mint range so a later churn phase pays for genuinely new
  // ids instead of re-minting warm ones.
  NodeId next_sybil_base_;
  bool ran_ = false;
};

}  // namespace unisamp::scenario
