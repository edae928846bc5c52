// Bit-identity of the per-round buffered gossip delivery: GossipNetwork
// batches each node's round deliveries and flushes them once through
// SamplingService::on_receive_stream, and that must be indistinguishable
// from feeding the service one id at a time at delivery moment — same
// recorded input streams, same service state (output, histogram, processed,
// subsequent sample() draws), same delivered() accounting — including under
// Byzantine flooding and churn between rounds.
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/sampling_service.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "stream/types.hpp"

namespace unisamp {
namespace {

GossipConfig gossip_config(std::uint64_t seed, std::size_t byzantine) {
  GossipConfig cfg;
  cfg.fanout = 3;
  cfg.knowledge_cache = 32;
  cfg.seed = seed;
  cfg.byzantine_count = byzantine;
  cfg.flood_factor = 4;
  cfg.forged_id_count = byzantine == 0 ? 0 : 16;
  cfg.record_inputs = true;
  return cfg;
}

ServiceConfig sampler_config(Strategy strategy) {
  ServiceConfig cfg;
  cfg.strategy = strategy;
  cfg.memory_size = 8;  // small c so evictions (and their coins) happen
  cfg.sketch_width = 10;
  cfg.sketch_depth = 5;
  cfg.record_output = true;
  return cfg;
}

// Replays a node's recorded input stream one id at a time into a fresh
// service built from the node's exact config (including its derived seed)
// and asserts the per-id replay reaches the same state the batched network
// delivery produced.
void expect_node_matches_per_id_replay(GossipNetwork& net, std::size_t node) {
  SamplingService& batched = net.service(node);
  SamplingService per_id(batched.config());
  for (const NodeId id : net.input_stream(node)) per_id.on_receive(id);

  ASSERT_EQ(batched.processed(), per_id.processed()) << "node " << node;
  ASSERT_EQ(batched.output_stream(), per_id.output_stream())
      << "node " << node;
  ASSERT_EQ(batched.output_histogram(), per_id.output_histogram())
      << "node " << node;
  // Post-round RNG states must agree too: the next draws are identical.
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(batched.sample(), per_id.sample())
        << "node " << node << " draw " << i;
}

class GossipBatchTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(GossipBatchTest, BufferedRoundsMatchPerIdDelivery) {
  GossipNetwork net(Topology::small_world(48, 4, 0.1, 5),
                    gossip_config(7, 6), sampler_config(GetParam()));
  SimDriver(net).run_ticks(12);

  std::uint64_t recorded = 0;
  for (std::size_t i = 6; i < net.size(); ++i) {
    expect_node_matches_per_id_replay(net, i);
    recorded += net.input_stream(i).size();
  }
  // delivered() counts exactly the ids that reached a correct node's
  // service — i.e. the union of the recorded input streams.
  EXPECT_EQ(net.delivered(), recorded);
}

TEST_P(GossipBatchTest, ChurnBetweenRoundsPreservesBitIdentity) {
  GossipNetwork net(Topology::random_regular(40, 6, 3),
                    gossip_config(11, 4), sampler_config(GetParam()));
  // Interleave rounds with joins/leaves: departed nodes must receive
  // nothing while away, and every service must still replay per-id.
  SimDriver driver(net);
  driver.run_ticks(3);
  net.set_active(10, false);
  net.set_active(21, false);
  const std::uint64_t in10 = net.input_stream(10).size();
  driver.run_ticks(4);
  EXPECT_EQ(net.input_stream(10).size(), in10);  // no deliveries while away
  net.set_active(10, true);
  net.set_active(33, false);
  driver.run_ticks(5);

  std::uint64_t recorded = 0;
  for (std::size_t i = 4; i < net.size(); ++i) {
    expect_node_matches_per_id_replay(net, i);
    recorded += net.input_stream(i).size();
  }
  EXPECT_EQ(net.delivered(), recorded);
}

INSTANTIATE_TEST_SUITE_P(SketchStrategies, GossipBatchTest,
                         ::testing::Values(Strategy::kKnowledgeFree,
                                           Strategy::kConservativeSketch),
                         [](const auto& info) {
                           return info.param == Strategy::kKnowledgeFree
                                      ? "KnowledgeFree"
                                      : "Conservative";
                         });

TEST(GossipBatchTest, RunsAreReproducible) {
  // Same (topology, config, seed) twice: the batched delivery layer must
  // not introduce any order nondeterminism.
  auto run = [] {
    GossipNetwork net(Topology::small_world(32, 4, 0.2, 9),
                      gossip_config(13, 4),
                      sampler_config(Strategy::kKnowledgeFree));
    SimDriver(net).run_ticks(10);
    std::vector<Stream> inputs;
    for (std::size_t i = 4; i < net.size(); ++i)
      inputs.push_back(net.input_stream(i));
    return std::pair{net.delivered(), inputs};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(GossipBatchTest, ThrowingServiceLeavesConsistentAccounting) {
  // An omniscient service only knows ids [0, n); Byzantine forged ids lie
  // far outside, so the round's flush throws.  The flush visits
  // instrumented nodes in index order: every node flushed before the
  // thrower ran its whole inbox and is fully accounted (histogram total ==
  // processed), the thrower keeps the prefix it accepted, the nodes after
  // it saw nothing, and no inbox keeps a pending id for a later flush.
  // Without knowledge caches only the byzantine nodes' neighbours hear a
  // forged id, and on this overlay the first three correct nodes are not
  // among them.
  constexpr std::size_t kNodes = 24;
  constexpr std::size_t kByzantine = 2;
  GossipConfig gossip = gossip_config(17, kByzantine);
  gossip.knowledge_cache = 0;
  ServiceConfig sampler = sampler_config(Strategy::kOmniscient);
  sampler.known_probabilities.assign(kNodes, 1.0 / kNodes);
  GossipNetwork net(Topology::random_regular(kNodes, 4, 5), gossip, sampler);

  EXPECT_THROW(SimDriver(net).run_ticks(1), std::out_of_range);
  // The thrower is the first node in flush order whose inbox held a forged
  // id; the omniscient sampler accepts exactly the ids before it.
  std::size_t thrower = kNodes;
  std::size_t accepted = 0;
  for (std::size_t i = kByzantine; i < kNodes && thrower == kNodes; ++i) {
    const Stream& inbox = net.input_stream(i);
    for (std::size_t k = 0; k < inbox.size(); ++k) {
      if (inbox[k] >= kNodes) {
        thrower = i;
        accepted = k;
        break;
      }
    }
  }
  ASSERT_GT(thrower, kByzantine + 1) << "fewer than two nodes flushed first";
  ASSERT_LT(thrower, kNodes);
  for (std::size_t i = kByzantine; i < kNodes; ++i) {
    SCOPED_TRACE(::testing::Message() << "node " << i);
    const SamplingService& service = net.service(i);
    const std::uint64_t expected = i < thrower    ? net.input_stream(i).size()
                                   : i == thrower ? accepted
                                                  : 0;
    EXPECT_EQ(service.processed(), expected);
    EXPECT_EQ(service.output_histogram().total(), service.processed());
    EXPECT_EQ(net.inbox_depth(i), 0u);
  }
}

}  // namespace
}  // namespace unisamp
