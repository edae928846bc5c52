// SimDriver — the one public entry point for running simulations.
//
// A SimDriver owns the discrete-event queue (sim/event_engine.hpp) and
// sequences a GossipNetwork's engine contract through it.  The timing
// semantics are a CONFIG, not a code path fork:
//
//   TimingModel::rounds()  — the degenerate config: synchronized delivery,
//     infinite bandwidth, unbounded inboxes.  Bit-identical to the
//     historical lockstep loop (kept as the test oracle in
//     tests/support/lockstep_oracle.hpp); every committed figure checksum
//     replays unchanged through it.
//   TimingModel::event(latency, inbox_capacity, bandwidth) — per-link
//     deterministic latencies put ids in flight as timestamped kMessage
//     events, bounded inboxes tail-drop under burst, and tick flushes
//     drain at most `bandwidth` ids per node.
//
// One tick spans kTicksPerRound units of virtual time and corresponds to
// one protocol round: at the tick boundary the queue processes (in order)
// the previous tick's flush, any churn events, the adversary's begin_tick
// hook, in-flight message arrivals, then every node's send event.
//
// Rounds-mode fast path: sends cut through — emit_sends delivers each id
// inline instead of enqueueing a zero-latency kMessage event.  This is
// observationally identical (a node never delivers to itself, so eager
// knowledge updates commute with the rest of its own send loop, and
// per-receiver order is preserved) and keeps the gossip/round hot path at
// O(1) heap operations per node per tick instead of per id; the
// equivalence is pinned by event_engine_test.cpp, which also checks that
// zero-latency EVENT mode — where every id does traverse the queue —
// matches rounds mode bit-for-bit.
//
// Determinism: a SimDriver run is a pure function of (network state,
// timing model, schedule of churn events).  Nothing here reads clocks,
// addresses, or iteration-order-unstable containers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_engine.hpp"
#include "sim/gossip.hpp"

namespace unisamp {

/// Declarative timing semantics for a simulation run.
struct TimingModel {
  enum class Kind : std::uint8_t {
    kRounds,  ///< degenerate lockstep config (the historical simulator)
    kEvent,   ///< latency/bandwidth/inbox-bounded discrete-event delivery
  };

  Kind kind = Kind::kRounds;
  LinkLatencyModel latency;           ///< ignored in rounds mode
  std::size_t inbox_capacity = 0;     ///< per-node pending cap; 0 = unbounded
  std::size_t bandwidth_per_tick = 0; ///< ids flushed per node per tick;
                                      ///< 0 = infinite

  /// The degenerate config: unit (synchronized) latency, infinite
  /// bandwidth, unbounded inboxes — bit-identical to lockstep rounds.
  static TimingModel rounds() { return TimingModel{}; }

  /// Event-driven config with deterministic per-link latencies.
  static TimingModel event(LinkLatencyModel latency,
                           std::size_t inbox_capacity = 0,
                           std::size_t bandwidth_per_tick = 0) {
    TimingModel t;
    t.kind = Kind::kEvent;
    t.latency = latency;
    t.inbox_capacity = inbox_capacity;
    t.bandwidth_per_tick = bandwidth_per_tick;
    return t;
  }
};

/// Facade driving one GossipNetwork through the event engine.
///
/// Contracts:
///  - Determinism: see file header.
///  - Persistence: in event mode, in-flight messages survive across
///    run_ticks() calls — construct ONE driver for the whole experiment
///    and keep calling it.  In rounds mode the queue is empty between
///    calls, so fresh drivers are equivalent.
///  - Exception safety: a service throw during the tick flush propagates
///    after the network has dropped all pending ids (GossipNetwork
///    contract); the failed tick is not counted in ticks_run().
///  - Thread-safety: none.
class SimDriver {
 public:
  explicit SimDriver(GossipNetwork& net,
                     TimingModel timing = TimingModel::rounds())
      : net_(net), timing_(timing) {}

  /// Advances virtual time by `ticks` whole ticks (= protocol rounds).
  void run_ticks(std::size_t ticks);

  /// Schedules a timestamped join/leave: node becomes (in)active at the
  /// START of tick `tick` (after that tick's flush-predecessors, before
  /// its adversary hook and sends).  `tick` is on this driver's clock and
  /// must not lie in the past.
  void schedule_set_active(std::uint64_t tick, std::size_t node, bool active);

  /// Completed ticks on this driver's clock.
  std::uint64_t ticks_run() const { return tick_; }

  /// Ids currently in flight (event mode; always 0 between rounds-mode
  /// calls).
  std::size_t in_flight_messages() const {
    return queue_.in_flight_messages();
  }

  const EngineStats& stats() const { return stats_; }
  const TimingModel& timing() const { return timing_; }
  GossipNetwork& network() { return net_; }

 private:
  void dispatch(const Event& event);
  void note_outcome(DeliveryOutcome outcome);

  GossipNetwork& net_;
  TimingModel timing_;
  EventQueue queue_;
  EngineStats stats_;
  std::uint64_t tick_ = 0;  ///< completed ticks
};

}  // namespace unisamp
