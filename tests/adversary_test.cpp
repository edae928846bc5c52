#include "adversary/attacks.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "stream/generators.hpp"
#include "stream/histogram.hpp"

namespace unisamp {
namespace {

TEST(SybilBudget, AllocatesDisjointIds) {
  SybilBudget budget(1000, 50);
  EXPECT_EQ(budget.distinct_ids(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GE(budget.ids()[i], 1000u);
    for (std::size_t j = i + 1; j < 50; ++j)
      EXPECT_NE(budget.ids()[i], budget.ids()[j]);
  }
}

TEST(TargetedAttack, UsesRequestedDistinctIds) {
  const std::vector<std::uint64_t> base(100, 10);
  const auto attack = make_targeted_attack(base, 38, 20, 7);
  EXPECT_EQ(attack.malicious_ids.size(), 38u);
  EXPECT_EQ(attack.injected, 38u * 20u);
  FrequencyHistogram h;
  h.add_stream(attack.stream);
  for (NodeId mid : attack.malicious_ids) EXPECT_EQ(h.count(mid), 20u);
  EXPECT_EQ(h.distinct(), 100u + 38u);
}

TEST(TargetedAttack, RejectsZeroIds) {
  const std::vector<std::uint64_t> base(10, 1);
  EXPECT_THROW(make_targeted_attack(base, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(make_flooding_attack(base, 0, 5, 1), std::invalid_argument);
}

TEST(FloodingAttack, CoversMoreIdsThanTargeted) {
  const std::vector<std::uint64_t> base(50, 10);
  const auto targeted = make_targeted_attack(base, 38, 10, 2);
  const auto flooding = make_flooding_attack(base, 44, 10, 2);
  EXPECT_GT(flooding.malicious_ids.size(), targeted.malicious_ids.size());
}

TEST(PoissonBandAttack, OverRepresentsNarrowBand) {
  const auto attack = make_poisson_band_attack(1000, 100000, 11);
  EXPECT_EQ(attack.stream.size(), 100000u);
  // The over-represented band should be a small fraction of the population
  // (paper: "around 50 node identifiers are over represented").
  EXPECT_GT(attack.malicious_ids.size(), 10u);
  EXPECT_LT(attack.malicious_ids.size(), 150u);
  // Band centred near n/2.
  for (NodeId id : attack.malicious_ids) {
    EXPECT_GT(id, 300u);
    EXPECT_LT(id, 700u);
  }
  // Every id still occurs at least once (freshness precondition).
  FrequencyHistogram h;
  h.add_stream(attack.stream);
  EXPECT_EQ(h.distinct(), 1000u);
}

TEST(MaliciousFraction, CountsCorrectly) {
  const Stream s = {1, 2, 3, 99, 99, 4};
  const std::vector<NodeId> bad = {99};
  EXPECT_NEAR(malicious_fraction(s, bad), 2.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(malicious_fraction({}, bad), 0.0);
  EXPECT_DOUBLE_EQ(malicious_fraction(s, {}), 0.0);
}

TEST(AttackStreams, DeterministicBySeed) {
  const std::vector<std::uint64_t> base(20, 5);
  const auto a1 = make_targeted_attack(base, 10, 3, 42);
  const auto a2 = make_targeted_attack(base, 10, 3, 42);
  const auto a3 = make_targeted_attack(base, 10, 3, 43);
  EXPECT_EQ(a1.stream, a2.stream);
  EXPECT_NE(a1.stream, a3.stream);
}

}  // namespace
}  // namespace unisamp
