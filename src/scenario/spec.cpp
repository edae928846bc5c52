#include "scenario/spec.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace unisamp::scenario {

Topology TopologySpec::build(std::uint64_t seed) const {
  switch (kind) {
    case Kind::kComplete:
      return Topology::complete(nodes);
    case Kind::kRing:
      return Topology::ring(nodes, degree);
    case Kind::kErdosRenyi:
      return Topology::erdos_renyi(nodes, edge_probability,
                                   derive_seed(seed, 0x7090));
    case Kind::kRandomRegular:
      return Topology::random_regular(nodes, degree,
                                      derive_seed(seed, 0x7090));
    case Kind::kSmallWorld:
      return Topology::small_world(nodes, degree, beta,
                                   derive_seed(seed, 0x7090));
    case Kind::kTorus:
      return Topology::torus(torus_dims);
    case Kind::kDragonfly:
      return Topology::dragonfly(dragonfly_routers, dragonfly_globals,
                                 dragonfly_terminals);
    case Kind::kFatTree:
      return Topology::fat_tree(fat_tree_k);
  }
  throw std::invalid_argument("unknown topology kind");
}

std::string_view to_string(TopologySpec::Kind kind) {
  switch (kind) {
    case TopologySpec::Kind::kComplete:
      return "complete";
    case TopologySpec::Kind::kRing:
      return "ring";
    case TopologySpec::Kind::kErdosRenyi:
      return "erdos-renyi";
    case TopologySpec::Kind::kRandomRegular:
      return "random-regular";
    case TopologySpec::Kind::kSmallWorld:
      return "small-world";
    case TopologySpec::Kind::kTorus:
      return "torus";
    case TopologySpec::Kind::kDragonfly:
      return "dragonfly";
    case TopologySpec::Kind::kFatTree:
      return "fat-tree";
  }
  return "?";
}

std::string_view to_string(PlacementSpec::Kind kind) {
  switch (kind) {
    case PlacementSpec::Kind::kDefault:
      return "default";
    case PlacementSpec::Kind::kScattered:
      return "scattered";
    case PlacementSpec::Kind::kSingleGroup:
      return "single-group";
    case PlacementSpec::Kind::kSingleRow:
      return "single-row";
  }
  return "?";
}

std::vector<std::uint32_t> placement_nodes(const Topology& topo,
                                           std::size_t count,
                                           const PlacementSpec& placement) {
  if (count > topo.size())
    throw std::invalid_argument("placement: count exceeds topology size");
  if (placement.kind == PlacementSpec::Kind::kDefault) {
    std::vector<std::uint32_t> chosen(count);
    for (std::size_t i = 0; i < count; ++i)
      chosen[i] = static_cast<std::uint32_t>(i);
    return chosen;
  }
  if (!topo.has_structure())
    throw std::invalid_argument(
        "placement: non-default placement needs a structured topology "
        "(torus / dragonfly / fat-tree)");

  // Bucket nodes by group or row, preserving index order inside a bucket
  // (so leaves-first layouts compromise terminals/hosts before routers).
  const bool by_row = placement.kind == PlacementSpec::Kind::kSingleRow;
  const std::size_t buckets =
      by_row ? topo.row_count() : topo.group_count();
  std::vector<std::vector<std::uint32_t>> members(buckets);
  for (std::size_t node = 0; node < topo.size(); ++node) {
    const std::size_t b = by_row ? topo.row_of(node) : topo.group_of(node);
    members[b].push_back(static_cast<std::uint32_t>(node));
  }

  std::vector<std::uint32_t> chosen;
  chosen.reserve(count);
  if (placement.kind == PlacementSpec::Kind::kScattered) {
    // Round-robin rank r across groups: one member in every group before
    // any group contributes its second.
    for (std::size_t rank = 0; chosen.size() < count; ++rank) {
      bool any = false;
      for (std::size_t g = 0; g < buckets && chosen.size() < count; ++g) {
        if (rank < members[g].size()) {
          chosen.push_back(members[g][rank]);
          any = true;
        }
      }
      if (!any) break;  // count > n is excluded above, but stay safe
    }
  } else {
    if (placement.target >= buckets)
      throw std::invalid_argument(
          "placement: target group/row out of range");
    // Fill the target bucket, wrapping into the following buckets only if
    // the byzantine population overflows it.
    for (std::size_t off = 0; chosen.size() < count && off < buckets; ++off) {
      for (std::uint32_t node : members[(placement.target + off) % buckets]) {
        if (chosen.size() == count) break;
        chosen.push_back(node);
      }
    }
  }
  return chosen;
}

namespace {
SimTime to_ticks(double rounds) {
  // llround of a single multiply: exact and identical on every IEEE-754
  // host, so latency configs written in round units stay deterministic.
  // A negative, NaN or too large a value lowers to the largest SimTime,
  // which LinkLatencyModel::validate rejects.
  const double ticks = rounds * static_cast<double>(kTicksPerRound);
  if (!(ticks >= 0.0 && ticks < 0x1p62))
    return std::numeric_limits<SimTime>::max();
  return static_cast<SimTime>(std::llround(ticks));
}
}  // namespace

TimingModel TimingSpec::build(std::uint64_t seed) const {
  if (kind == Kind::kRounds) return TimingModel::rounds();
  LinkLatencyModel lat;
  switch (latency) {
    case LatencyKind::kSynchronized:
      lat.kind = LinkLatencyModel::Kind::kSynchronized;
      break;
    case LatencyKind::kUniform:
      lat.kind = LinkLatencyModel::Kind::kUniform;
      break;
    case LatencyKind::kBimodal:
      lat.kind = LinkLatencyModel::Kind::kBimodal;
      break;
  }
  lat.base = to_ticks(latency_base);
  lat.spread = to_ticks(latency_spread);
  lat.far_fraction = far_fraction;
  lat.far_extra = to_ticks(far_extra);
  lat.seed = derive_seed(seed, 0x71B1);
  return TimingModel::event(lat, inbox_capacity, bandwidth_per_round);
}

std::string_view to_string(TimingSpec::Kind kind) {
  switch (kind) {
    case TimingSpec::Kind::kRounds:
      return "rounds";
    case TimingSpec::Kind::kEvent:
      return "event";
  }
  return "?";
}

std::string_view to_string(AttackKind kind) {
  switch (kind) {
    case AttackKind::kQuiescent:
      return "quiescent";
    case AttackKind::kStaticFlood:
      return "static-flood";
    case AttackKind::kEstimateProbing:
      return "estimate-probing";
    case AttackKind::kEclipseFlood:
      return "eclipse-flood";
    case AttackKind::kSybilChurn:
      return "sybil-churn";
    case AttackKind::kColluding:
      return "colluding";
  }
  return "?";
}

std::string_view to_string(DefenseSpec::RekeyPolicy policy) {
  switch (policy) {
    case DefenseSpec::RekeyPolicy::kNone:
      return "none";
    case DefenseSpec::RekeyPolicy::kOnDetection:
      return "on-detection";
  }
  return "?";
}

namespace {

// The node count the topology parameters derive to; the structured
// families' size functions throw for parameters their builders reject.
std::size_t derived_nodes(const TopologySpec& topo) {
  switch (topo.kind) {
    case TopologySpec::Kind::kTorus:
      return Topology::torus_size(topo.torus_dims);
    case TopologySpec::Kind::kDragonfly:
      return Topology::dragonfly_size(topo.dragonfly_routers,
                                      topo.dragonfly_globals,
                                      topo.dragonfly_terminals);
    case TopologySpec::Kind::kFatTree:
      return Topology::fat_tree_size(topo.fat_tree_k);
    default:
      return topo.nodes;
  }
}

}  // namespace

void validate(const ScenarioSpec& spec) {
  const std::size_t derived = derived_nodes(spec.topology);
  if (derived != spec.topology.nodes)
    throw std::invalid_argument(
        spec.name + ": topology.nodes != " + std::to_string(derived) +
        ", the node count the " + std::string(to_string(spec.topology.kind)) +
        " parameters derive");
  if (spec.gossip.byzantine_count >= spec.topology.nodes)
    throw std::invalid_argument(spec.name +
                                ": at least one correct node required");
  if (spec.victim < spec.gossip.byzantine_count ||
      spec.victim >= spec.topology.nodes)
    throw std::invalid_argument(spec.name +
                                ": victim must be a correct node");
  if (spec.gossip.observer_stride == 0)
    throw std::invalid_argument(spec.name +
                                ": gossip.observer_stride must be >= 1");
  if ((spec.victim - spec.gossip.byzantine_count) %
          spec.gossip.observer_stride !=
      0)
    throw std::invalid_argument(
        spec.name +
        ": victim is not instrumented under gossip.observer_stride "
        "(victim metrics need a sampling service)");
  if (spec.timing) {
    const TimingSpec& timing = *spec.timing;
    if (timing.kind == TimingSpec::Kind::kRounds) {
      // Keep rounds specs honest: event-only knobs on a rounds config are
      // a latent mistake, not a silent no-op.
      if (timing.latency != TimingSpec::LatencyKind::kSynchronized ||
          timing.latency_base != 0.0 || timing.latency_spread != 0.0 ||
          timing.far_fraction != 0.0 || timing.far_extra != 0.0 ||
          timing.inbox_capacity != 0 || timing.bandwidth_per_round != 0)
        throw std::invalid_argument(
            spec.name +
            ": timing.kind is rounds but event-mode knobs are set "
            "(latency/inbox_capacity/bandwidth_per_round)");
    } else {
      // The latency bounds are the model's own, checked on the model the
      // spec lowers to (its seed does not matter here).
      try {
        timing.build(0).latency.validate();
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(spec.name + ": timing: " + e.what());
      }
      if (timing.latency == TimingSpec::LatencyKind::kSynchronized &&
          (timing.latency_base != 0.0 || timing.latency_spread != 0.0 ||
           timing.far_fraction != 0.0 || timing.far_extra != 0.0))
        throw std::invalid_argument(
            spec.name +
            ": timing.latency is synchronized but latency knobs are set "
            "(pick uniform or bimodal)");
      if (timing.latency != TimingSpec::LatencyKind::kBimodal &&
          (timing.far_fraction != 0.0 || timing.far_extra != 0.0))
        throw std::invalid_argument(
            spec.name +
            ": timing.far_* knobs require timing.latency = bimodal");
    }
  }
  if (spec.defense) {
    const DefenseSpec& defense = *spec.defense;
    // Rekey knobs on a detect-only policy are a latent mistake, not a
    // silent no-op (same rule as event-only knobs on a rounds timing).
    if (defense.rekey == DefenseSpec::RekeyPolicy::kNone &&
        (defense.rekey_cooldown != 0 || defense.max_rekeys != 0))
      throw std::invalid_argument(
          spec.name +
          ": defense.rekey is none but rekey_cooldown/max_rekeys are set");
  }
  if (spec.workload) {
    unisamp::validate(*spec.workload);  // per-kind invariants (trace_replay.hpp)
    if (spec.workload->id_offset < kHonestTraceIdBase)
      throw std::invalid_argument(
          spec.name +
          ": workload.id_offset below kHonestTraceIdBase (honest trace ids "
          "must never collide with node ids or forged/minted pools)");
  }
  if (spec.schedule.empty())
    throw std::invalid_argument(spec.name + ": empty attack schedule");
  for (const AttackPhase& phase : spec.schedule) {
    if (phase.rounds == 0)
      throw std::invalid_argument(spec.name +
                                  ": schedule phase with zero rounds");
    if (phase.intensity < 0.0 || phase.intensity > 1.0)
      throw std::invalid_argument(spec.name +
                                  ": phase intensity outside [0, 1]");
    const bool needs_pool = phase.kind == AttackKind::kStaticFlood ||
                            phase.kind == AttackKind::kEstimateProbing ||
                            phase.kind == AttackKind::kEclipseFlood ||
                            phase.kind == AttackKind::kColluding;
    if (needs_pool && spec.gossip.byzantine_count > 0 &&
        spec.gossip.forged_id_count == 0)
      throw std::invalid_argument(
          spec.name + ": flooding phases need a forged id pool "
                      "(gossip.forged_id_count > 0)");
    if (phase.kind == AttackKind::kColluding &&
        spec.gossip.byzantine_count == 1)
      throw std::invalid_argument(
          spec.name +
          ": a colluding phase splits the byzantine population by parity "
          "and needs byzantine_count >= 2 (one lone member would leave a "
          "leg empty)");
  }
}

}  // namespace unisamp::scenario
