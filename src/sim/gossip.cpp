#include "sim/gossip.hpp"

#include <stdexcept>

namespace unisamp {

GossipNetwork::GossipNetwork(Topology topology, GossipConfig config,
                             ServiceConfig sampler_config)
    : topology_(std::move(topology)),
      config_(config),
      nodes_(topology_.size()),
      active_(topology_.size(), true),
      rng_(derive_seed(config.seed, 0xC0551B)) {
  if (config_.byzantine_count >= topology_.size())
    throw std::invalid_argument("at least one correct node required");
  if (config_.observer_stride == 0)
    throw std::invalid_argument("observer_stride must be >= 1");
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].knowledge.reserve(config_.knowledge_cache);
    if (!is_byzantine(i) &&
        (i - config_.byzantine_count) % config_.observer_stride == 0) {
      ServiceConfig cfg = sampler_config;
      // Per-node seed derivation is keyed on the node index, NOT the
      // observer rank, so stride 1 reproduces the historic seeds exactly.
      cfg.seed = derive_seed(config.seed, 0x1000 + i);
      nodes_[i].service = std::make_unique<SamplingService>(cfg);
    }
  }
  forged_ids_.reserve(config_.forged_id_count);
  // Forged ids live far above the real id range so they never collide.
  const NodeId base = static_cast<NodeId>(topology_.size()) + (1ULL << 32);
  for (std::size_t i = 0; i < config_.forged_id_count; ++i)
    forged_ids_.push_back(base + static_cast<NodeId>(i));
}

void GossipNetwork::remember(NodeState& state, NodeId id) {
  if (state.knowledge.size() < config_.knowledge_cache) {
    state.knowledge.push_back(id);
  } else if (!state.knowledge.empty()) {
    state.knowledge[state.next_slot] = id;
    state.next_slot = (state.next_slot + 1) % state.knowledge.size();
  }
}

DeliveryOutcome GossipNetwork::accept_delivery(std::size_t to, NodeId id,
                                               std::size_t inbox_capacity) {
  if (!active_[to]) return DeliveryOutcome::kInactive;
  NodeState& state = nodes_[to];
  // A tail-drop at a full inbox happens before the node "hears" the id:
  // no knowledge update, no stream accounting — the id simply never
  // arrived.  Unreachable with capacity 0 (the degenerate rounds config).
  if (inbox_capacity > 0 && state.service != nullptr &&
      state.pending.size() >= inbox_capacity)
    return DeliveryOutcome::kOverflow;
  // Knowledge caches update eagerly at delivery time — later senders at the
  // same instant read them, so deferring this would change what gets
  // gossiped.
  remember(state, id);
  if (!state.service) return DeliveryOutcome::kHeard;
  // The service feed is deferred: ids accumulate in per-node order and
  // flush at the tick boundary through the batched on_receive_stream path.
  state.pending.push_back(id);
  if (config_.record_inputs) state.input.push_back(id);
  ++delivered_;
  return DeliveryOutcome::kDelivered;
}

void GossipNetwork::flush_tick(std::size_t bandwidth) {
  try {
    for (NodeState& state : nodes_) {
      if (!state.service || state.pending.empty()) continue;
      if (bandwidth == 0 || state.pending.size() <= bandwidth) {
        state.service->on_receive_stream(state.pending);
        state.pending.clear();
      } else {
        // Bandwidth-limited drain: the oldest `bandwidth` ids reach the
        // sampler, the rest stay pending for the next tick's flush.
        state.service->on_receive_stream(
            std::span<const NodeId>(state.pending.data(), bandwidth));
        state.pending.erase(
            state.pending.begin(),
            state.pending.begin() + static_cast<std::ptrdiff_t>(bandwidth));
      }
    }
  } catch (...) {
    // A throwing service (e.g. an omniscient sampler fed a forged id) must
    // not replay this tick's ids on a later flush — neither its own nor
    // those of nodes the loop had not reached yet.
    for (NodeState& state : nodes_) state.pending.clear();
    throw;
  }
  ++rounds_;
}

void GossipNetwork::begin_tick(std::uint64_t tick) {
  if (adversary_ != nullptr) adversary_->begin_tick(*this, tick);
}

const Stream& GossipNetwork::input_stream(std::size_t node) const {
  if (!has_service(node))
    throw std::invalid_argument(
        "only instrumented correct nodes record an input stream");
  if (!config_.record_inputs)
    throw std::logic_error("input recording was not enabled");
  return nodes_[node].input;
}

void GossipNetwork::set_active(std::size_t node, bool active) {
  active_.at(node) = active;
}

const SamplingService& GossipNetwork::service(std::size_t node) const {
  if (is_byzantine(node))
    throw std::invalid_argument("byzantine nodes expose no sampling service");
  if (!nodes_[node].service)
    throw std::invalid_argument(
        "node is not instrumented (see GossipConfig::observer_stride)");
  return *nodes_[node].service;
}

SamplingService& GossipNetwork::service(std::size_t node) {
  if (is_byzantine(node))
    throw std::invalid_argument("byzantine nodes expose no sampling service");
  if (!nodes_[node].service)
    throw std::invalid_argument(
        "node is not instrumented (see GossipConfig::observer_stride)");
  return *nodes_[node].service;
}

std::vector<NodeId> GossipNetwork::sample_correct_nodes() {
  std::vector<NodeId> samples;
  for (std::size_t i = config_.byzantine_count; i < nodes_.size(); ++i) {
    if (!active_[i] || !nodes_[i].service) continue;
    if (auto s = nodes_[i].service->sample()) samples.push_back(*s);
  }
  return samples;
}

}  // namespace unisamp
