#include "sim/gossip.hpp"

#include <algorithm>
#include <stdexcept>

namespace unisamp {

GossipNetwork::GossipNetwork(Topology topology, GossipConfig config,
                             ServiceConfig sampler_config)
    : topology_(std::move(topology)),
      config_(config),
      nodes_(topology_.size()),
      active_(topology_.size(), true),
      instrumented_(topology_.size(), false),
      rng_(derive_seed(config.seed, 0xC0551B)) {
  if (config_.byzantine_count >= topology_.size())
    throw std::invalid_argument("at least one correct node required");
  if (config_.observer_stride == 0)
    throw std::invalid_argument("observer_stride must be >= 1");
  if (config_.knowledge_cache > kMaxKnowledgeCache)
    throw std::invalid_argument("knowledge_cache must be <= 65536");
  rings_.resize(nodes_.size() * config_.knowledge_cache);
  cursors_.resize(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!is_byzantine(i) &&
        (i - config_.byzantine_count) % config_.observer_stride == 0) {
      ServiceConfig cfg = sampler_config;
      // Per-node seed derivation is keyed on the node index, NOT the
      // observer rank, so stride 1 reproduces the historic seeds exactly.
      cfg.seed = derive_seed(config.seed, 0x1000 + i);
      nodes_[i].service = std::make_unique<SamplingService>(cfg);
      instrumented_[i] = true;
      observers_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  forged_ids_.reserve(config_.forged_id_count);
  // Forged ids live far above the real id range so they never collide.
  const NodeId base = static_cast<NodeId>(topology_.size()) + (1ULL << 32);
  for (std::size_t i = 0; i < config_.forged_id_count; ++i)
    forged_ids_.push_back(base + static_cast<NodeId>(i));
}

void GossipNetwork::remember(std::size_t node, NodeId id) {
  const std::size_t size = config_.knowledge_cache;
  if (size == 0) return;
  NodeId* const ring = rings_.data() + node * size;
  RingCursor& cursor = cursors_[node];
  if (cursor.fill < size) {
    ring[cursor.fill++] = id;
  } else {
    ring[cursor.next] = id;
    if (++cursor.next == size) cursor.next = 0;
  }
}

DeliveryOutcome GossipNetwork::accept_delivery(std::size_t to, NodeId id,
                                               std::size_t inbox_capacity) {
  if (!active_[to]) return DeliveryOutcome::kInactive;
  // Knowledge caches update eagerly at delivery time — later senders at the
  // same instant read them, so deferring this would change what gets
  // gossiped.  Most receivers have no service: they stop here, without
  // loading their NodeState.
  if (!instrumented_[to]) {
    remember(to, id);
    return DeliveryOutcome::kHeard;
  }
  NodeState& state = nodes_[to];
  // A tail-drop at a full inbox happens before the node "hears" the id:
  // no knowledge update, no stream accounting — the id simply never
  // arrived.  Unreachable with capacity 0 (the degenerate rounds config).
  if (inbox_capacity > 0 && state.pending.size() >= inbox_capacity)
    return DeliveryOutcome::kOverflow;
  remember(to, id);
  // The service feed is deferred: ids accumulate in per-node order and
  // flush at the tick boundary through the batched on_receive_stream path.
  state.pending.push_back(id);
  if (config_.record_inputs) state.input.push_back(id);
  ++delivered_;
  return DeliveryOutcome::kDelivered;
}

void GossipNetwork::flush_tick(std::size_t bandwidth) {
  // A software pipeline over the instrumented nodes (group prefetching,
  // Chen, Ailamaki, Gibbons & Mowry, ICDE 2004).  Each node's sampler state
  // is cold by the time its inbox flushes, so while node j ingests, the
  // loads the next nodes start with are already on their way: node j+3's
  // service object, node j+2's sampler object and inbox, node j+1's
  // sketch, Gamma and membership slots.  Prefetches change no state, so
  // every service ends as a plain node-by-node flush leaves it.
  const std::size_t count = observers_.size();
  try {
    for (std::size_t j = 0; j < count; ++j) {
      if (j + 3 < count)
        __builtin_prefetch(nodes_[observers_[j + 3]].service.get());
      if (j + 2 < count) {
        const NodeState& ahead = nodes_[observers_[j + 2]];
        if (!ahead.pending.empty()) {
          __builtin_prefetch(&ahead.service->sampler());
          __builtin_prefetch(ahead.pending.data());
        }
      }
      if (j + 1 < count) {
        const NodeState& next = nodes_[observers_[j + 1]];
        if (!next.pending.empty())
          next.service->sampler().prefetch(next.pending);
      }
      NodeState& state = nodes_[observers_[j]];
      if (state.pending.empty()) continue;
      // Bandwidth-limited drain: the oldest `bandwidth` ids reach the
      // sampler, the rest stay pending for the next tick's flush.
      const std::size_t take = bandwidth == 0
                                   ? state.pending.size()
                                   : std::min(bandwidth, state.pending.size());
      state.service->on_receive_stream(
          std::span<const NodeId>(state.pending.data(), take));
      state.pending.erase(
          state.pending.begin(),
          state.pending.begin() + static_cast<std::ptrdiff_t>(take));
    }
  } catch (...) {
    // A throwing service (e.g. an omniscient sampler fed a forged id) must
    // not replay this tick's ids on a later flush — neither its own nor
    // those of nodes the loop had not reached yet.
    for (const std::uint32_t i : observers_) nodes_[i].pending.clear();
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
