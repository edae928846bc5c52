// Overlay topologies for the gossip simulator.
//
// The paper's model (Sec. III-C) only requires that from T0 onwards all
// correct nodes are WEAKLY CONNECTED — there is a path between any pair of
// correct nodes.  The simulator provides the classical overlay families and
// a connectivity checker so experiments can assert the assumption holds.
//
// Beyond the unstructured families, three structured datacenter/HPC fabrics
// are available — k-ary n-dimensional torus, dragonfly (CODES-style group
// connectivity), and a 3-tier fat-tree/clos.  They are fully deterministic
// in their parameters (no RNG) and annotate every node with structural
// metadata (group / row / tier) so adversary PLACEMENT can target the
// structure: "all byzantine nodes in one dragonfly group" is expressible,
// which the unstructured overlay model cannot say.  See
// scenario::PlacementSpec for the placement policies built on top.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace unisamp {

/// Undirected graph over nodes [0, n), adjacency-list representation.
class Topology {
 public:
  explicit Topology(std::size_t n);

  // --- Unstructured overlay families ---------------------------------------

  /// Fully connected overlay.
  static Topology complete(std::size_t n);
  /// Ring where each node links to its k nearest neighbours on each side.
  static Topology ring(std::size_t n, std::size_t k = 1);
  /// Erdos-Renyi G(n, p); NOT guaranteed connected — callers should check.
  /// Throws std::invalid_argument unless p is in [0, 1] (NaN included).
  static Topology erdos_renyi(std::size_t n, double p, std::uint64_t seed);
  /// Random d-regular-ish overlay: each node IN TURN draws random peers
  /// until it has added d new edges (16*d attempt budget), so — whenever
  /// the budget suffices, i.e. any non-degenerate n/d — the graph has
  /// exactly n*d edges, mean degree exactly 2*d, and minimum degree >= d.
  /// There is NO hard upper bound per node: incoming draws from the other
  /// nodes stack on top of a node's own d, so individual degrees can
  /// exceed 2*d (they concentrate near the mean; the property harness
  /// pins the exact invariants).  d >= n degenerates to complete(n).
  static Topology random_regular(std::size_t n, std::size_t d,
                                 std::uint64_t seed);
  /// Watts-Strogatz small world: ring(k) with each edge rewired w.p. beta.
  /// Throws std::invalid_argument unless beta is in [0, 1] (NaN included).
  static Topology small_world(std::size_t n, std::size_t k, double beta,
                              std::uint64_t seed);

  // --- Structured datacenter/HPC families ----------------------------------
  //
  // All three are deterministic in their parameters (no seed) and carry
  // structural metadata: group_of / row_of / tier_of below.

  /// k-ary n-dimensional torus over prod(dims) nodes.  Node index is the
  /// mixed-radix encoding of its coordinates with DIMENSION 0 FASTEST:
  /// index = c0 + dims[0]*(c1 + dims[1]*(c2 + ...)); use torus_coords() to
  /// decode.  Each node links to its +-1 neighbours (mod dims[d]) in every
  /// dimension; a dimension of size 2 contributes ONE edge per pair (the +1
  /// and -1 neighbours coincide).  Every dims[d] must be >= 2.
  /// Metadata: group = the last coordinate (a (n-1)-dimensional slab),
  /// row = the dimension-0 line (index / dims[0]), tier = 0 everywhere.
  static Topology torus(std::span<const std::size_t> dims);

  /// Dragonfly after the codes-net model: groups of `a` routers (a fully
  /// connected local clique), `h` global links per router, `p` terminals
  /// per router, and g = a*h + 1 groups so there is EXACTLY ONE global link
  /// between every pair of groups.  The canonical wiring: group g's global
  /// slot s (s in [0, a*h), owned by local router s / h) connects to group
  /// (s < g ? s : s + 1); for the pair g1 < g2 that is the undirected edge
  /// router((g2-1)/h of g1) — router(g1/h of g2).
  /// Layout: group G occupies [G*a*(p+1), (G+1)*a*(p+1)) with the group's
  /// TERMINALS FIRST (router-major: router r's terminals at offsets
  /// [r*p, (r+1)*p)) and the `a` routers after them — so index-order
  /// placement compromises terminals before routers.
  /// Metadata: group = G, row = global router id G*a + r (a router and its
  /// terminals share a row), tier = 0 for terminals / 1 for routers.
  /// Requires a >= 2, h >= 1, p >= 0.
  static Topology dragonfly(std::size_t routers_per_group,
                            std::size_t global_links_per_router,
                            std::size_t terminals_per_router);

  /// 3-tier fat-tree/clos with parameter k (even, >= 2): k pods, each with
  /// k/2 edge and k/2 aggregation switches and (k/2)^2 hosts, plus (k/2)^2
  /// core switches — hosts link to their edge switch, edge and aggregation
  /// switches form a full bipartite graph inside the pod, and aggregation
  /// switch i of every pod links to core switches [i*k/2, (i+1)*k/2).
  /// Layout: pod P occupies [P*S, (P+1)*S) with S = (k/2)^2 + k, HOSTS
  /// FIRST (edge-major: edge switch e's hosts at offsets [e*k/2,
  /// (e+1)*k/2)), then the edge switches, then the aggregation switches;
  /// core switches occupy the tail [k*S, k*S + (k/2)^2).
  /// Metadata: group = pod (core switches form group k), row = the rack
  /// (global edge-switch id, shared by an edge switch and its hosts;
  /// aggregation and core switches get distinct rows after the racks),
  /// tier = 0 host / 1 edge / 2 aggregation / 3 core.
  static Topology fat_tree(std::size_t k);

  /// Node counts the three structured builders above derive from their
  /// parameters.  Each throws std::invalid_argument for exactly the
  /// parameters its builder rejects — a bad shape, an overflowing product,
  /// or a count past the uint32 label space — and allocates nothing, so a
  /// spec can be checked against them before any graph is built.
  static std::size_t torus_size(std::span<const std::size_t> dims);
  static std::size_t dragonfly_size(std::size_t routers_per_group,
                                    std::size_t global_links_per_router,
                                    std::size_t terminals_per_router);
  static std::size_t fat_tree_size(std::size_t k);

  /// Decodes a torus node index into coordinates under `dims` (dimension 0
  /// fastest) — the inverse of the torus() index encoding.
  static std::vector<std::size_t> torus_coords(std::size_t node,
                                               std::span<const std::size_t> dims);

  // --- Structural metadata --------------------------------------------------

  /// Whether this instance carries structural metadata (only the structured
  /// families above set it; group_of/row_of/tier_of throw without it).
  bool has_structure() const { return group_count_ > 0; }
  std::uint32_t group_count() const { return group_count_; }
  std::uint32_t row_count() const { return row_count_; }
  std::uint32_t group_of(std::size_t node) const;
  std::uint32_t row_of(std::size_t node) const;
  std::uint32_t tier_of(std::size_t node) const;

  /// Relabelled copy in which the (distinct, in-range) nodes of `chosen`
  /// become indices [0, chosen.size()) in the given order and every other
  /// node keeps its relative order after them.  Per-node adjacency order is
  /// preserved (only labels change) and structural metadata is permuted
  /// alongside — this is how a PlacementSpec moves its chosen byzantine
  /// positions into the first-`b`-nodes-are-byzantine convention of
  /// GossipConfig without touching the protocol.
  Topology front_loaded(std::span<const std::uint32_t> chosen) const;

  std::size_t size() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_; }
  std::span<const std::uint32_t> neighbors(std::size_t node) const {
    return adjacency_[node];
  }
  bool has_edge(std::size_t a, std::size_t b) const;
  void add_edge(std::size_t a, std::size_t b);

  /// BFS connectivity over the whole graph.
  bool is_connected() const;

  /// Connectivity restricted to the given subset (the paper's weak
  /// connectivity among CORRECT nodes): true if the induced subgraph on
  /// `members` is connected.  Boundary behaviour (pinned by
  /// tests/topology_properties_test.cpp): an EMPTY member set and a
  /// SINGLETON member set are both trivially connected — there is no pair
  /// of members left unjoined — so the check never rejects a degenerate
  /// population.
  bool is_connected_among(std::span<const std::uint32_t> members) const;

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::size_t edges_ = 0;
  // Structural metadata (structured families only; empty = unstructured).
  std::uint32_t group_count_ = 0;
  std::uint32_t row_count_ = 0;
  std::vector<std::uint32_t> group_of_;
  std::vector<std::uint32_t> row_of_;
  std::vector<std::uint32_t> tier_of_;
};

}  // namespace unisamp
