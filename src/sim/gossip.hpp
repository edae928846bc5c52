// Gossip protocol state for the discrete-event simulator.
//
// The paper (Sec. IV) is agnostic about how input streams are produced —
// "they may result from the continuous propagation of node ids through
// gossip-based algorithms, or from the node ids received during random
// walks".  This simulator produces them the first way: in every tick each
// live node pushes its own id plus a random subset of ids it has heard of to
// its overlay neighbours.  Byzantine members instead flood forged
// identifiers (the Sybil model of Sec. III-B): each tick they push
// `flood_factor` ids drawn from a pool of `forged_id_count` distinct forged
// identities.
//
// Each correct node's received ids form its input stream sigma_i and are
// fed to its SamplingService.  Churn (joins/leaves) can be exercised before
// T0 via set_active() or, under SimDriver, as timestamped join/leave
// events; the paper's assumption is that churn ceases at T0.
//
// Control flow is INVERTED relative to the original lockstep design: this
// class no longer drives itself.  It exposes a small engine contract —
// emit_sends / accept_delivery / begin_tick / flush_tick — and the
// SimDriver facade (sim/driver.hpp) sequences those through the
// discrete-event queue; SimDriver is the one simulation loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sampling_service.hpp"
#include "sim/topology.hpp"
#include "stream/types.hpp"
#include "util/rng.hpp"

namespace unisamp {

class GossipNetwork;

/// What became of one id handed to accept_delivery().  Only kDelivered ids
/// reach a sampling service; the driver folds the rest into EngineStats
/// drop accounting.
enum class DeliveryOutcome : std::uint8_t {
  kDelivered,  ///< appended to an instrumented node's pending inbox
  kHeard,      ///< receiver has no service (byzantine / uninstrumented):
               ///< knowledge cache updated, nothing to deliver
  kInactive,   ///< receiver has churned out; id discarded entirely
  kOverflow,   ///< bounded inbox was full; id discarded entirely
};

/// Adaptive-adversary hook.  When installed via
/// GossipNetwork::set_adversary(), byzantine members delegate their
/// per-neighbour pushes to this interface instead of the built-in static
/// Sybil flood, so colluding strategies can re-plan every tick from
/// feedback (the victim's public output, activity, topology).
/// Implementations live in src/adversary/adaptive.hpp; the engine driving
/// phased schedules of them is src/scenario.
///
/// Contracts:
///  - Determinism: push_ids must draw all randomness from the `rng` it is
///    handed (the network RNG), so the tick replays bit-identically.
///  - Feedback boundary: begin_round/begin_tick get a CONST view of the
///    network and must only call const accessors that consume no service
///    RNG (output_histogram(), sampler().memory(), topology(),
///    is_active()) — never SamplingService::sample().
class RoundAdversary {
 public:
  virtual ~RoundAdversary() = default;

  /// Called once at the top of every round, before any send.
  virtual void begin_round(const GossipNetwork& net) = 0;

  /// Event-time generalization of begin_round: SimDriver fires this at
  /// every tick boundary (kTickBegin), in rounds mode and event mode
  /// alike, passing the driver's completed-tick count.  The default
  /// forwards to begin_round so every existing strategy behaves
  /// identically on both paths; override it only to exploit event time.
  virtual void begin_tick(const GossipNetwork& net, std::uint64_t tick) {
    (void)tick;
    begin_round(net);
  }

  /// Appends the ids byzantine node `from` pushes to neighbour `to` this
  /// tick (append-only; the network clears `out` between calls).
  virtual void push_ids(std::size_t from, std::size_t to, Xoshiro256& rng,
                        std::vector<NodeId>& out) = 0;

  /// Every malicious id the strategy has used so far — the Sybil cost
  /// actually paid.  Grows over time under identity churn.
  virtual std::span<const NodeId> malicious_ids() const = 0;
};

/// Largest GossipConfig::knowledge_cache a GossipNetwork accepts.
inline constexpr std::size_t kMaxKnowledgeCache = 65'536;

struct GossipConfig {
  std::size_t fanout = 3;          ///< ids pushed per neighbour per tick
  /// Per-node cache of heard ids, at most kMaxKnowledgeCache (larger sizes
  /// throw std::invalid_argument).  0 is valid: correct nodes then push
  /// only their own id.
  std::size_t knowledge_cache = 64;
  std::uint64_t seed = 1;

  /// Byzantine behaviour.
  std::size_t byzantine_count = 0;   ///< the first `byzantine_count` nodes are malicious
  std::size_t flood_factor = 8;      ///< forged ids pushed per neighbour per tick
  std::size_t forged_id_count = 0;   ///< distinct forged ids (ell of the model);
                                     ///< 0 = byzantine nodes use their own ids only
  bool record_inputs = false;        ///< keep each correct node's input stream

  /// Instrument every k-th correct node with a SamplingService (the others
  /// still gossip — knowledge caches only, no sampler, no measurements).
  /// 1 (default) instruments everyone and is bit-identical to the historic
  /// behaviour; larger strides make n >= 100k simulations affordable, since
  /// per-node sketch state is what dominates memory at scale.
  std::size_t observer_stride = 1;
};

/// Gossip network state machine.
///
/// Contracts:
///  - Determinism: the full network evolution is a pure function of
///    (topology, configs, seed, timing model) — message order, per-node
///    streams, and every service's state replay bit-identically across
///    runs/machines.
///  - Delivery batching: ids destined for a node buffer in its pending
///    inbox and flush through SamplingService::on_receive_stream (the
///    batched fast path) at tick boundaries.  In the degenerate rounds
///    config this is bit-identical to per-id delivery: per-node delivery
///    order is preserved, services are independent (per-node RNGs), and
///    the network RNG / knowledge caches are updated eagerly at delivery,
///    so what is sent never depends on the flush.  delivered(), recorded
///    input streams, and sample_correct_nodes() observe the same values
///    either way.  Caveat: if a service THROWS during the flush (only
///    possible with an omniscient sampler fed an out-of-population id),
///    delivered() and the recorded inputs already count the buffered ids,
///    some of which never reached a sampler; every node's buffered ids are
///    dropped, never replayed (see flush_tick for what each node keeps).
///  - Flush order: flush_tick visits the instrumented nodes in index
///    order, a list built once at construction.  Uninstrumented and
///    byzantine nodes are never visited.
///  - Complexity: one tick is O(active nodes * degree * fanout) ids, each
///    costing O(sketch depth) in the destination's sampler.
///  - Memory: every knowledge cache is a ring in one n * knowledge_cache
///    array of 8-byte ids, plus 8 bytes of fill and next-slot per node, a
///    56-byte NodeState per node, two bits per node (active, instrumented)
///    and a 4-byte flush-list entry per instrumented node.  A delivery to
///    a node without a service reads its bits and knowledge ring, never its
///    NodeState.
///  - Thread-safety: none; drive a network from one thread.
class GossipNetwork {
 public:
  /// One sampling service per instrumented correct node (see
  /// GossipConfig::observer_stride), configured from `sampler_config`
  /// (seed is re-derived per node).
  GossipNetwork(Topology topology, GossipConfig config,
                ServiceConfig sampler_config);

  // --- Engine contract (called by SimDriver; see sim/driver.hpp) -----------

  /// Tick boundary: forwards to the installed adversary's begin_tick hook.
  void begin_tick(std::uint64_t tick);

  /// Emits node `from`'s sends for this tick as deliver_fn(to, id) calls,
  /// in protocol order, drawing from the network RNG.  No-op for inactive
  /// or isolated nodes.  The driver decides what a "send" means: immediate
  /// accept_delivery (rounds mode) or a timestamped kMessage event.
  template <typename DeliverFn>
  void emit_sends(std::size_t from, DeliverFn&& deliver_fn);

  /// One id arriving at node `to`: updates the knowledge cache eagerly
  /// (later senders in the same instant read it) and buffers the id in the
  /// pending inbox when the node is instrumented.  `inbox_capacity` > 0
  /// bounds the pending inbox: an id arriving at a full inbox is dropped
  /// whole — no knowledge update, no accounting — modelling a tail-drop
  /// receive queue.  Capacity 0 (unbounded) is the degenerate rounds
  /// config and is bit-identical to the historical deliver().
  DeliveryOutcome accept_delivery(std::size_t to, NodeId id,
                                  std::size_t inbox_capacity);

  /// End of tick: flushes every pending inbox through the batched service
  /// ingest path, instrumented nodes in index order, and advances
  /// rounds_run().  `bandwidth` > 0 drains at most that many ids per node
  /// (FIFO; the remainder carries over to the next tick's flush); 0 drains
  /// everything (infinite bandwidth, the degenerate rounds config).  While
  /// a node ingests, the flush prefetches the next nodes' sampler state
  /// (NodeSampler::prefetch), which changes no state.  On a service throw:
  /// every node flushed before the thrower is fully accounted, the thrower
  /// keeps the ids its sampler accepted (SamplingService's contract), the
  /// nodes after it keep nothing, every node's pending ids are dropped
  /// (see the class contract), rounds_run() does not advance, and the
  /// exception propagates.
  void flush_tick(std::size_t bandwidth);

  /// Current depth of a node's pending inbox (backlog accounting).
  std::size_t inbox_depth(std::size_t node) const {
    return nodes_[node].pending.size();
  }

  // --- Network state -------------------------------------------------------

  /// Churn control (before T0): inactive nodes neither send nor receive.
  void set_active(std::size_t node, bool active);
  bool is_active(std::size_t node) const { return active_[node]; }

  std::size_t size() const { return topology_.size(); }
  bool is_byzantine(std::size_t node) const {
    return node < config_.byzantine_count;
  }

  /// Whether this node carries a SamplingService (correct AND on the
  /// observer stride).
  bool has_service(std::size_t node) const { return instrumented_[node]; }

  /// Sampling service of an instrumented correct node (throws
  /// std::invalid_argument otherwise).
  const SamplingService& service(std::size_t node) const;
  SamplingService& service(std::size_t node);

  /// Current sample S_i(t) of every active instrumented correct node
  /// (skips nodes whose stream is still empty).
  std::vector<NodeId> sample_correct_nodes();

  /// Total ids delivered to instrumented correct nodes so far.
  std::uint64_t delivered() const { return delivered_; }
  std::size_t rounds_run() const { return rounds_; }

  /// Ids of the forged identity pool (empty if forged_id_count == 0).
  const std::vector<NodeId>& forged_ids() const { return forged_ids_; }

  /// Installs (or clears, with nullptr) the adaptive-adversary hook.
  /// Non-owning: the adversary must outlive the ticks it drives.  With no
  /// adversary installed byzantine behaviour is the built-in static flood —
  /// bit-identical to what this class always did.
  void set_adversary(RoundAdversary* adversary) { adversary_ = adversary; }
  const RoundAdversary* adversary() const { return adversary_; }

  /// Input stream of an instrumented correct node (requires record_inputs).
  const Stream& input_stream(std::size_t node) const;

  const Topology& topology() const { return topology_; }

 private:
  struct NodeState {
    std::unique_ptr<SamplingService> service;  // null when uninstrumented
    Stream input;  // recorded deliveries (only when record_inputs)
    // Pending inbox: buffered deliveries awaiting the tick flush through
    // the service's batched ingest path; capacity is reused across ticks.
    Stream pending;
  };

  /// Where node i's knowledge ring stands: it holds rings_[i * K, i * K +
  /// fill), K = knowledge_cache, and once full the next id overwrites slot
  /// `next`, oldest first.
  struct RingCursor {
    std::uint32_t fill = 0;
    std::uint32_t next = 0;
  };

  void remember(std::size_t node, NodeId id);

  Topology topology_;
  GossipConfig config_;
  std::vector<NodeState> nodes_;
  std::vector<std::uint32_t> observers_;  ///< instrumented nodes, in order
  std::vector<NodeId> rings_;  ///< every node's knowledge ring
  std::vector<RingCursor> cursors_;
  std::vector<bool> active_;
  std::vector<bool> instrumented_;  ///< has_service(), without the NodeState
  std::vector<NodeId> forged_ids_;
  RoundAdversary* adversary_ = nullptr;
  Stream adversary_scratch_;  // per-(from,to) push buffer, reused
  Xoshiro256 rng_;
  std::uint64_t delivered_ = 0;
  std::size_t rounds_ = 0;
};

template <typename DeliverFn>
void GossipNetwork::emit_sends(std::size_t from, DeliverFn&& deliver_fn) {
  // This is the historical lockstep send body, verbatim: the order of
  // deliver_fn calls and of network-RNG draws is a behaviour contract that
  // every committed figure checksum depends on.
  if (!active_[from]) return;
  const auto neighbors = topology_.neighbors(from);
  if (neighbors.empty()) return;
  const NodeId* const ring = rings_.data() + from * config_.knowledge_cache;
  const std::uint32_t& known = cursors_[from].fill;
  for (std::uint32_t to : neighbors) {
    if (!active_[to]) continue;
    if (is_byzantine(from)) {
      if (adversary_ != nullptr) {
        // Adaptive path: the installed strategy decides what this
        // byzantine member pushes, drawing from the network RNG.
        adversary_scratch_.clear();
        adversary_->push_ids(from, to, rng_, adversary_scratch_);
        for (const NodeId id : adversary_scratch_) deliver_fn(to, id);
        continue;
      }
      // Static Sybil flood: forged ids (or own id if no forged pool).
      for (std::size_t f = 0; f < config_.flood_factor; ++f) {
        const NodeId forged =
            forged_ids_.empty()
                ? static_cast<NodeId>(from)
                : forged_ids_[rng_.next_below(forged_ids_.size())];
        deliver_fn(to, forged);
      }
    } else {
      // Correct push: own id + fanout-1 random known ids.
      deliver_fn(to, static_cast<NodeId>(from));
      for (std::size_t f = 1; f < config_.fanout; ++f) {
        if (known == 0) break;
        deliver_fn(to, ring[rng_.next_below(known)]);
      }
    }
  }
}

}  // namespace unisamp
