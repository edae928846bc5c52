#include "sim/topology.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "util/rng.hpp"

namespace unisamp {
namespace {

// Checked product of the torus dimensions; the node index space must fit in
// the uint32_t adjacency labels.
std::size_t checked_product(std::span<const std::size_t> dims) {
  std::size_t n = 1;
  for (std::size_t d : dims) {
    if (__builtin_mul_overflow(n, d, &n))
      throw std::invalid_argument("torus dimension product overflows");
  }
  return n;
}

void check_label_range(std::size_t n, const char* family) {
  if (n > static_cast<std::size_t>(UINT32_MAX))
    throw std::invalid_argument(std::string(family) +
                                ": node count exceeds uint32 label space");
}

// !(p >= 0) also rejects NaN, which would otherwise mean "never".
void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument(std::string(what) + " outside [0, 1]");
}

}  // namespace

Topology::Topology(std::size_t n) : adjacency_(n) {
  if (n == 0) throw std::invalid_argument("topology needs at least one node");
}

bool Topology::has_edge(std::size_t a, std::size_t b) const {
  const auto& adj = adjacency_[a];
  return std::find(adj.begin(), adj.end(), static_cast<std::uint32_t>(b)) !=
         adj.end();
}

void Topology::add_edge(std::size_t a, std::size_t b) {
  if (a == b) return;
  if (a >= size() || b >= size())
    throw std::out_of_range("edge endpoint out of range");
  if (has_edge(a, b)) return;
  adjacency_[a].push_back(static_cast<std::uint32_t>(b));
  adjacency_[b].push_back(static_cast<std::uint32_t>(a));
  ++edges_;
}

Topology Topology::complete(std::size_t n) {
  Topology t(n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) t.add_edge(a, b);
  return t;
}

Topology Topology::ring(std::size_t n, std::size_t k) {
  Topology t(n);
  if (n < 2) return t;
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t hop = 1; hop <= k; ++hop) t.add_edge(a, (a + hop) % n);
  return t;
}

Topology Topology::erdos_renyi(std::size_t n, double p, std::uint64_t seed) {
  check_probability(p, "erdos-renyi: edge probability");
  Topology t(n);
  Xoshiro256 rng(seed);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b)
      if (rng.bernoulli(p)) t.add_edge(a, b);
  return t;
}

Topology Topology::random_regular(std::size_t n, std::size_t d,
                                  std::uint64_t seed) {
  if (d >= n) return complete(n);
  Topology t(n);
  Xoshiro256 rng(seed);
  for (std::size_t a = 0; a < n; ++a) {
    std::size_t attempts = 0;
    std::size_t added = 0;
    while (added < d && attempts < 16 * d) {
      const std::size_t b = rng.next_below(n);
      ++attempts;
      if (b == a || t.has_edge(a, b)) continue;
      t.add_edge(a, b);
      ++added;
    }
  }
  return t;
}

Topology Topology::small_world(std::size_t n, std::size_t k, double beta,
                               std::uint64_t seed) {
  check_probability(beta, "small-world: beta");
  Topology base = ring(n, k);
  if (n < 4) return base;
  Topology t(n);
  Xoshiro256 rng(seed);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::uint32_t b : base.neighbors(a)) {
      if (b < a) continue;  // each undirected edge once
      if (rng.bernoulli(beta)) {
        // Rewire endpoint b to a random node.
        std::size_t nb = rng.next_below(n);
        std::size_t guard = 0;
        while ((nb == a || t.has_edge(a, nb)) && guard++ < 32)
          nb = rng.next_below(n);
        if (nb != a && !t.has_edge(a, nb)) {
          t.add_edge(a, nb);
          continue;
        }
      }
      t.add_edge(a, b);
    }
  }
  return t;
}

std::size_t Topology::torus_size(std::span<const std::size_t> dims) {
  if (dims.empty()) throw std::invalid_argument("torus: dims must be non-empty");
  for (std::size_t d : dims)
    if (d < 2) throw std::invalid_argument("torus: every dimension must be >= 2");
  const std::size_t n = checked_product(dims);
  check_label_range(n, "torus");
  return n;
}

Topology Topology::torus(std::span<const std::size_t> dims) {
  const std::size_t n = torus_size(dims);
  Topology t(n);
  for (std::size_t node = 0; node < n; ++node) {
    // +1 neighbour per dimension; add_edge dedups the dims[d] == 2 case
    // where +1 and -1 coincide.
    std::size_t stride = 1;
    std::size_t rest = node;
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::size_t c = rest % dims[d];
      const std::size_t up = (c + 1) % dims[d];
      t.add_edge(node, node - c * stride + up * stride);
      rest /= dims[d];
      stride *= dims[d];
    }
  }
  const std::size_t slab = n / dims.back();       // nodes per group
  const std::size_t line = dims.front();          // nodes per row
  t.group_count_ = static_cast<std::uint32_t>(dims.back());
  t.row_count_ = static_cast<std::uint32_t>(n / line);
  t.group_of_.resize(n);
  t.row_of_.resize(n);
  t.tier_of_.assign(n, 0);
  for (std::size_t node = 0; node < n; ++node) {
    t.group_of_[node] = static_cast<std::uint32_t>(node / slab);
    t.row_of_[node] = static_cast<std::uint32_t>(node / line);
  }
  return t;
}

std::vector<std::size_t> Topology::torus_coords(
    std::size_t node, std::span<const std::size_t> dims) {
  std::vector<std::size_t> coords(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    coords[d] = node % dims[d];
    node /= dims[d];
  }
  return coords;
}

std::size_t Topology::dragonfly_size(std::size_t a, std::size_t h,
                                     std::size_t p) {
  if (a < 2) throw std::invalid_argument("dragonfly: need >= 2 routers per group");
  if (h < 1) throw std::invalid_argument("dragonfly: need >= 1 global link per router");
  std::size_t groups = 0;
  if (__builtin_mul_overflow(a, h, &groups) ||
      __builtin_add_overflow(groups, std::size_t{1}, &groups))
    throw std::invalid_argument("dragonfly: group count overflows");
  std::size_t per_group = 0;
  std::size_t n = 0;
  if (__builtin_mul_overflow(a, p + 1, &per_group) ||
      __builtin_mul_overflow(groups, per_group, &n))
    throw std::invalid_argument("dragonfly: node count overflows");
  check_label_range(n, "dragonfly");
  return n;
}

Topology Topology::dragonfly(std::size_t routers_per_group,
                             std::size_t global_links_per_router,
                             std::size_t terminals_per_router) {
  const std::size_t a = routers_per_group;
  const std::size_t h = global_links_per_router;
  const std::size_t p = terminals_per_router;
  const std::size_t n = dragonfly_size(a, h, p);
  const std::size_t groups = a * h + 1;  // cannot overflow: n did not
  const std::size_t per_group = a * (p + 1);

  Topology t(n);
  // Group G layout: terminals first (router-major), then the a routers.
  const auto terminal_id = [&](std::size_t g, std::size_t r, std::size_t term) {
    return g * per_group + r * p + term;
  };
  const auto router_id = [&](std::size_t g, std::size_t r) {
    return g * per_group + a * p + r;
  };
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t r = 0; r < a; ++r) {
      for (std::size_t term = 0; term < p; ++term)
        t.add_edge(router_id(g, r), terminal_id(g, r, term));
      for (std::size_t r2 = r + 1; r2 < a; ++r2)
        t.add_edge(router_id(g, r), router_id(g, r2));  // local clique
    }
    // Global links: slot s of group g reaches group (s < g ? s : s + 1);
    // emitting only the half toward higher-numbered groups wires each
    // unordered group pair exactly once.
    for (std::size_t s = 0; s < a * h; ++s) {
      const std::size_t peer = (s < g) ? s : s + 1;
      if (peer <= g) continue;
      t.add_edge(router_id(g, s / h), router_id(peer, g / h));
    }
  }
  t.group_count_ = static_cast<std::uint32_t>(groups);
  t.row_count_ = static_cast<std::uint32_t>(groups * a);
  t.group_of_.resize(n);
  t.row_of_.resize(n);
  t.tier_of_.resize(n);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t r = 0; r < a; ++r) {
      const std::uint32_t row = static_cast<std::uint32_t>(g * a + r);
      const std::size_t router = router_id(g, r);
      t.group_of_[router] = static_cast<std::uint32_t>(g);
      t.row_of_[router] = row;
      t.tier_of_[router] = 1;
      for (std::size_t term = 0; term < p; ++term) {
        const std::size_t node = terminal_id(g, r, term);
        t.group_of_[node] = static_cast<std::uint32_t>(g);
        t.row_of_[node] = row;
        t.tier_of_[node] = 0;
      }
    }
  }
  return t;
}

std::size_t Topology::fat_tree_size(std::size_t k) {
  if (k < 2 || k % 2 != 0)
    throw std::invalid_argument("fat-tree: k must be even and >= 2");
  const std::size_t half = k / 2;
  std::size_t pod_size = 0;  // half^2 hosts + half edge + half agg
  std::size_t n = 0;
  if (__builtin_mul_overflow(half, half, &pod_size) ||
      __builtin_add_overflow(pod_size, k, &pod_size) ||
      __builtin_mul_overflow(k, pod_size, &n) ||
      __builtin_add_overflow(n, half * half, &n))
    throw std::invalid_argument("fat-tree: node count overflows");
  check_label_range(n, "fat-tree");
  return n;
}

Topology Topology::fat_tree(std::size_t k) {
  const std::size_t n = fat_tree_size(k);
  const std::size_t half = k / 2;
  const std::size_t pod_size = half * half + k;  // cannot overflow: n did not

  Topology t(n);
  // Pod P layout: hosts first (edge-major), then edge switches, then
  // aggregation switches; core switches at the tail.
  const auto host_id = [&](std::size_t pod, std::size_t e, std::size_t hst) {
    return pod * pod_size + e * half + hst;
  };
  const auto edge_id = [&](std::size_t pod, std::size_t e) {
    return pod * pod_size + half * half + e;
  };
  const auto agg_id = [&](std::size_t pod, std::size_t a) {
    return pod * pod_size + half * half + half + a;
  };
  const auto core_id = [&](std::size_t c) { return k * pod_size + c; };
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t hst = 0; hst < half; ++hst)
        t.add_edge(edge_id(pod, e), host_id(pod, e, hst));
      for (std::size_t ag = 0; ag < half; ++ag)
        t.add_edge(edge_id(pod, e), agg_id(pod, ag));  // intra-pod bipartite
    }
    for (std::size_t ag = 0; ag < half; ++ag)
      for (std::size_t c = ag * half; c < (ag + 1) * half; ++c)
        t.add_edge(agg_id(pod, ag), core_id(c));
  }
  t.group_count_ = static_cast<std::uint32_t>(k + 1);  // pods + core group
  t.row_count_ = static_cast<std::uint32_t>(2 * k * half + half * half);
  t.group_of_.resize(n);
  t.row_of_.resize(n);
  t.tier_of_.resize(n);
  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t e = 0; e < half; ++e) {
      const std::uint32_t rack = static_cast<std::uint32_t>(pod * half + e);
      t.group_of_[edge_id(pod, e)] = static_cast<std::uint32_t>(pod);
      t.row_of_[edge_id(pod, e)] = rack;
      t.tier_of_[edge_id(pod, e)] = 1;
      for (std::size_t hst = 0; hst < half; ++hst) {
        const std::size_t node = host_id(pod, e, hst);
        t.group_of_[node] = static_cast<std::uint32_t>(pod);
        t.row_of_[node] = rack;
        t.tier_of_[node] = 0;
      }
    }
    for (std::size_t ag = 0; ag < half; ++ag) {
      const std::size_t node = agg_id(pod, ag);
      t.group_of_[node] = static_cast<std::uint32_t>(pod);
      t.row_of_[node] = static_cast<std::uint32_t>(k * half + pod * half + ag);
      t.tier_of_[node] = 2;
    }
  }
  for (std::size_t c = 0; c < half * half; ++c) {
    const std::size_t node = core_id(c);
    t.group_of_[node] = static_cast<std::uint32_t>(k);
    t.row_of_[node] = static_cast<std::uint32_t>(2 * k * half + c);
    t.tier_of_[node] = 3;
  }
  return t;
}

std::uint32_t Topology::group_of(std::size_t node) const {
  if (!has_structure())
    throw std::logic_error("group_of: topology has no structural metadata");
  return group_of_.at(node);
}

std::uint32_t Topology::row_of(std::size_t node) const {
  if (!has_structure())
    throw std::logic_error("row_of: topology has no structural metadata");
  return row_of_.at(node);
}

std::uint32_t Topology::tier_of(std::size_t node) const {
  if (!has_structure())
    throw std::logic_error("tier_of: topology has no structural metadata");
  return tier_of_.at(node);
}

Topology Topology::front_loaded(std::span<const std::uint32_t> chosen) const {
  const std::size_t n = size();
  constexpr std::uint32_t kUnmapped = UINT32_MAX;
  std::vector<std::uint32_t> new_label(n, kUnmapped);
  std::uint32_t next = 0;
  for (std::uint32_t old : chosen) {
    if (old >= n) throw std::invalid_argument("front_loaded: node out of range");
    if (new_label[old] != kUnmapped)
      throw std::invalid_argument("front_loaded: duplicate node in selection");
    new_label[old] = next++;
  }
  for (std::size_t old = 0; old < n; ++old)
    if (new_label[old] == kUnmapped) new_label[old] = next++;

  Topology t(n);
  // Map adjacency directly (not via add_edge) so per-node neighbour ORDER is
  // preserved under the relabelling.
  for (std::size_t old = 0; old < n; ++old) {
    auto& adj = t.adjacency_[new_label[old]];
    adj.reserve(adjacency_[old].size());
    for (std::uint32_t nb : adjacency_[old]) adj.push_back(new_label[nb]);
  }
  t.edges_ = edges_;
  t.group_count_ = group_count_;
  t.row_count_ = row_count_;
  if (has_structure()) {
    t.group_of_.resize(n);
    t.row_of_.resize(n);
    t.tier_of_.resize(n);
    for (std::size_t old = 0; old < n; ++old) {
      t.group_of_[new_label[old]] = group_of_[old];
      t.row_of_[new_label[old]] = row_of_[old];
      t.tier_of_[new_label[old]] = tier_of_[old];
    }
  }
  return t;
}

bool Topology::is_connected() const {
  std::vector<std::uint32_t> all(size());
  for (std::size_t i = 0; i < size(); ++i) all[i] = static_cast<std::uint32_t>(i);
  return is_connected_among(all);
}

bool Topology::is_connected_among(
    std::span<const std::uint32_t> members) const {
  if (members.empty()) return true;
  std::unordered_set<std::uint32_t> member_set(members.begin(), members.end());
  std::unordered_set<std::uint32_t> visited;
  std::queue<std::uint32_t> frontier;
  frontier.push(members[0]);
  visited.insert(members[0]);
  while (!frontier.empty()) {
    const std::uint32_t cur = frontier.front();
    frontier.pop();
    for (std::uint32_t nb : adjacency_[cur]) {
      if (member_set.contains(nb) && !visited.contains(nb)) {
        visited.insert(nb);
        frontier.push(nb);
      }
    }
  }
  return visited.size() == member_set.size();
}

}  // namespace unisamp
