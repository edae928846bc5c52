// Tests of the pre-T0 churn driver (Sec. III-C assumption machinery).
#include "sim/churn.hpp"

#include <gtest/gtest.h>

#include "sim/topology.hpp"

namespace unisamp {
namespace {

GossipConfig gossip_cfg() {
  GossipConfig cfg;
  cfg.fanout = 2;
  cfg.seed = 5;
  return cfg;
}

ServiceConfig service_cfg() {
  ServiceConfig cfg;
  cfg.strategy = Strategy::kKnowledgeFree;
  cfg.memory_size = 5;
  cfg.sketch_width = 4;
  cfg.sketch_depth = 3;
  cfg.record_output = false;
  return cfg;
}

TEST(Churn, EventsHappenAndEveryoneReturnsAtT0) {
  GossipNetwork net(Topology::complete(20), gossip_cfg(), service_cfg());
  ChurnConfig churn;
  churn.pre_t0_rounds = 40;
  churn.leave_probability = 0.1;
  churn.seed = 7;
  SimDriver driver(net);
  const std::size_t events = run_churn_phase(driver, churn);
  EXPECT_GT(events, 0u);
  for (std::size_t i = 0; i < net.size(); ++i)
    EXPECT_TRUE(net.is_active(i)) << "node " << i << " not restored at T0";
  EXPECT_EQ(net.rounds_run(), 40u);
}

TEST(Churn, RespectsMinActiveFloor) {
  GossipNetwork net(Topology::complete(6), gossip_cfg(), service_cfg());
  ChurnConfig churn;
  churn.pre_t0_rounds = 100;
  churn.leave_probability = 0.9;  // aggressive churn
  churn.rejoin_probability = 0.05;
  churn.min_active = 3;
  churn.seed = 11;
  SimDriver driver(net);
  const auto report = run_churn_phase_with_report(driver, churn);
  EXPECT_GE(report.min_active_seen, 3u);
  EXPECT_GT(report.events, 0u);
}

TEST(Churn, ReportTracksConnectivity) {
  // On a complete graph any nonempty active set is connected.
  GossipNetwork net(Topology::complete(15), gossip_cfg(), service_cfg());
  ChurnConfig churn;
  churn.pre_t0_rounds = 30;
  churn.seed = 3;
  SimDriver driver(net);
  const auto report = run_churn_phase_with_report(driver, churn);
  EXPECT_EQ(report.rounds, 30u);
  EXPECT_EQ(report.connected_rounds, 30u);
}

TEST(Churn, SparseOverlayCanDisconnectDuringChurn) {
  // On a bare ring, removing any two non-adjacent nodes disconnects the
  // remainder — the report must notice at least one such round under heavy
  // churn (this is why the paper assumes weak connectivity explicitly).
  GossipNetwork net(Topology::ring(20, 1), gossip_cfg(), service_cfg());
  ChurnConfig churn;
  churn.pre_t0_rounds = 60;
  churn.leave_probability = 0.3;
  churn.rejoin_probability = 0.3;
  churn.seed = 13;
  SimDriver driver(net);
  const auto report = run_churn_phase_with_report(driver, churn);
  EXPECT_LT(report.connected_rounds, report.rounds);
}

TEST(Churn, DeterministicBySeed) {
  auto run = [&](std::uint64_t seed) {
    GossipNetwork net(Topology::complete(12), gossip_cfg(), service_cfg());
    ChurnConfig churn;
    churn.pre_t0_rounds = 25;
    churn.seed = seed;
    SimDriver driver(net);
    return run_churn_phase(driver, churn);
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(Churn, SamplingContinuesAfterT0) {
  GossipNetwork net(Topology::complete(15), gossip_cfg(), service_cfg());
  // One driver spans churn and post-T0 operation.
  SimDriver driver(net, TimingModel::rounds());
  ChurnConfig churn;
  churn.pre_t0_rounds = 30;
  churn.seed = 9;
  run_churn_phase(driver, churn);
  const auto processed_at_t0 = net.service(3).processed();
  driver.run_ticks(20);
  EXPECT_GT(net.service(3).processed(), processed_at_t0);
  EXPECT_TRUE(net.service(3).sample().has_value());
}

}  // namespace
}  // namespace unisamp
