#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/random_walk.hpp"
#include "sim/topology.hpp"

namespace unisamp {
namespace {

TEST(Topology, CompleteGraphProperties) {
  const auto t = Topology::complete(10);
  EXPECT_EQ(t.size(), 10u);
  EXPECT_EQ(t.edge_count(), 45u);
  EXPECT_TRUE(t.is_connected());
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(t.neighbors(i).size(), 9u);
}

TEST(Topology, RingProperties) {
  const auto t = Topology::ring(12, 2);
  EXPECT_TRUE(t.is_connected());
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_EQ(t.neighbors(i).size(), 4u);
}

TEST(Topology, TinyRing) {
  const auto t = Topology::ring(2);
  EXPECT_EQ(t.edge_count(), 1u);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, ErdosRenyiEdgeCountNearExpectation) {
  const std::size_t n = 100;
  const double p = 0.1;
  const auto t = Topology::erdos_renyi(n, p, 5);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_GT(t.edge_count(), 0.7 * expected);
  EXPECT_LT(t.edge_count(), 1.3 * expected);
}

TEST(Topology, ErdosRenyiDenseIsConnected) {
  EXPECT_TRUE(Topology::erdos_renyi(50, 0.5, 7).is_connected());
}

TEST(Topology, ErdosRenyiSparseIsDisconnected) {
  // p far below the ln(n)/n threshold.
  EXPECT_FALSE(Topology::erdos_renyi(200, 0.001, 3).is_connected());
}

TEST(Topology, RandomRegularDegreesInRange) {
  const std::size_t d = 4;
  const auto t = Topology::random_regular(60, d, 11);
  for (std::size_t i = 0; i < 60; ++i)
    EXPECT_GE(t.neighbors(i).size(), d);
  EXPECT_TRUE(t.is_connected());  // d=4 random graph: connected whp
}

TEST(Topology, SmallWorldKeepsDegreeMass) {
  const auto t = Topology::small_world(100, 3, 0.2, 13);
  // Rewiring preserves the number of edges up to collisions.
  EXPECT_GT(t.edge_count(), 250u);
  EXPECT_LE(t.edge_count(), 300u);
  EXPECT_TRUE(t.is_connected());
}

TEST(Topology, ConnectivityAmongSubset) {
  // Path 0-1-2-3; subset {0, 3} is NOT connected in the induced subgraph,
  // subset {0, 1, 2} is.
  Topology t(4);
  t.add_edge(0, 1);
  t.add_edge(1, 2);
  t.add_edge(2, 3);
  const std::vector<std::uint32_t> disconnected = {0, 3};
  const std::vector<std::uint32_t> connected = {0, 1, 2};
  EXPECT_FALSE(t.is_connected_among(disconnected));
  EXPECT_TRUE(t.is_connected_among(connected));
}

TEST(Topology, EdgeApiBasics) {
  Topology t(3);
  EXPECT_FALSE(t.has_edge(0, 1));
  t.add_edge(0, 1);
  EXPECT_TRUE(t.has_edge(0, 1));
  EXPECT_TRUE(t.has_edge(1, 0));
  t.add_edge(0, 1);  // idempotent
  EXPECT_EQ(t.edge_count(), 1u);
  t.add_edge(2, 2);  // self loop ignored
  EXPECT_EQ(t.edge_count(), 1u);
  EXPECT_THROW(t.add_edge(0, 5), std::out_of_range);
}

GossipConfig basic_gossip(std::size_t byz = 0) {
  GossipConfig cfg;
  cfg.fanout = 2;
  cfg.seed = 5;
  cfg.byzantine_count = byz;
  cfg.flood_factor = 4;
  cfg.forged_id_count = byz > 0 ? 20 : 0;
  return cfg;
}

ServiceConfig basic_service() {
  ServiceConfig cfg;
  cfg.strategy = Strategy::kKnowledgeFree;
  cfg.memory_size = 5;
  // Small sketch: the overlays in these tests have ~20-40 distinct ids, and
  // the knowledge-free sampler only starts evicting once every counter is
  // touched (min_sigma > 0); a 4x3 matrix fills quickly at this scale.
  cfg.sketch_width = 4;
  cfg.sketch_depth = 3;
  cfg.record_output = false;
  return cfg;
}

TEST(Gossip, DeliversIdsToAllCorrectNodes) {
  GossipNetwork net(Topology::ring(20, 2), basic_gossip(), basic_service());
  SimDriver(net).run_ticks(10);
  EXPECT_GT(net.delivered(), 0u);
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_GT(net.service(i).processed(), 0u) << "node " << i;
}

TEST(Gossip, EveryCorrectIdEventuallyHeardOnConnectedOverlay) {
  GossipNetwork net(Topology::ring(15, 1), basic_gossip(), basic_service());
  SimDriver driver(net, TimingModel::rounds());
  driver.run_ticks(500);
  // Gossip dissemination on a connected ring: most node ids must reach
  // node 0's sampler output (ids far around the ring take many rounds and
  // must also survive the c=5 sampling memory, so "most" not "all").
  const auto& h = net.service(0).output_histogram();
  std::size_t heard = 0;
  for (NodeId id = 0; id < 15; ++id)
    if (h.count(id) > 0) ++heard;
  EXPECT_GE(heard, 10u);
}

TEST(Gossip, ByzantineNodesFloodForgedIds) {
  GossipNetwork net(Topology::complete(10), basic_gossip(2), basic_service());
  SimDriver driver(net, TimingModel::rounds());
  driver.run_ticks(20);
  EXPECT_EQ(net.forged_ids().size(), 20u);
  // Correct node streams must contain forged ids (the attack is live).
  bool forged_seen = false;
  for (std::size_t i = 2; i < 10; ++i) {
    for (NodeId fid : net.forged_ids())
      if (net.service(i).output_histogram().count(fid) > 0) forged_seen = true;
  }
  EXPECT_TRUE(forged_seen);
}

TEST(Gossip, ByzantineNodesExposeNoService) {
  GossipNetwork net(Topology::complete(6), basic_gossip(2), basic_service());
  EXPECT_THROW(net.service(0), std::invalid_argument);
  EXPECT_NO_THROW(net.service(2));
  EXPECT_TRUE(net.is_byzantine(1));
  EXPECT_FALSE(net.is_byzantine(2));
}

TEST(Gossip, AllByzantineRejected) {
  EXPECT_THROW(GossipNetwork(Topology::complete(3), basic_gossip(3),
                             basic_service()),
               std::invalid_argument);
}

TEST(Gossip, ChurnInactiveNodesReceiveNothing) {
  GossipNetwork net(Topology::complete(8), basic_gossip(), basic_service());
  // Churn as timestamped events: node 3 leaves at tick 0 and rejoins at
  // tick 5, all scheduled up front on the driver.
  SimDriver driver(net, TimingModel::rounds());
  driver.schedule_set_active(0, 3, false);
  driver.schedule_set_active(5, 3, true);
  const auto before = net.service(3).processed();
  driver.run_ticks(5);
  EXPECT_EQ(net.service(3).processed(), before);
  driver.run_ticks(5);
  EXPECT_GT(net.service(3).processed(), before);
}

TEST(Gossip, SamplesAvailableAfterRounds) {
  GossipNetwork net(Topology::complete(12), basic_gossip(2), basic_service());
  SimDriver driver(net, TimingModel::rounds());
  driver.run_ticks(5);
  const auto samples = net.sample_correct_nodes();
  EXPECT_EQ(samples.size(), 10u);
}

TEST(RandomWalk, StreamsNonEmptyOnConnectedGraph) {
  const auto t = Topology::ring(20, 2);
  RandomWalkConfig cfg;
  cfg.walks_per_node = 3;
  cfg.walk_length = 10;
  cfg.seed = 3;
  const auto streams = random_walk_streams(t, cfg);
  ASSERT_EQ(streams.size(), 20u);
  std::size_t total = 0;
  for (const auto& s : streams) total += s.size();
  // Every hop logs one id: n * walks * length hops total.
  EXPECT_EQ(total, 20u * 3u * 10u);
}

TEST(RandomWalk, ObservedIdsAreValidOriginators) {
  const auto t = Topology::complete(10);
  RandomWalkConfig cfg;
  cfg.seed = 9;
  const auto streams = random_walk_streams(t, cfg);
  for (const auto& s : streams)
    for (NodeId id : s) EXPECT_LT(id, 10u);
}

TEST(RandomWalk, DegreeBiasOnIrregularGraph) {
  // Star graph: the hub is visited on every second hop, so the hub's
  // stream is much longer than leaves' streams.
  Topology star(11);
  for (std::size_t leaf = 1; leaf <= 10; ++leaf) star.add_edge(0, leaf);
  RandomWalkConfig cfg;
  cfg.walks_per_node = 5;
  cfg.walk_length = 20;
  cfg.seed = 21;
  const auto streams = random_walk_streams(star, cfg);
  std::size_t leaf_total = 0;
  for (std::size_t leaf = 1; leaf <= 10; ++leaf)
    leaf_total += streams[leaf].size();
  EXPECT_GT(streams[0].size(), leaf_total / 10 * 5);
}

}  // namespace
}  // namespace unisamp
