// Tests of the Sec. V urn model: Theorem 6, Eq. 2 (L_{k,s}) and Eq. 5 (E_k).
// The paper's Table I provides exact oracle values.
#include "analysis/urn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace unisamp {
namespace {

TEST(Occupancy, FirstBallOccupiesOneUrn) {
  OccupancyDistribution occ(10);
  EXPECT_EQ(occ.balls(), 1u);
  EXPECT_DOUBLE_EQ(occ.pmf(1), 1.0);
  EXPECT_DOUBLE_EQ(occ.mean(), 1.0);
}

TEST(Occupancy, PmfSumsToOne) {
  OccupancyDistribution occ(7);
  for (int step = 0; step < 50; ++step) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= 7; ++i) sum += occ.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "after " << occ.balls() << " balls";
    occ.step();
  }
}

TEST(Occupancy, MeanMatchesClosedForm) {
  // E[N_l] = k (1 - (1 - 1/k)^l).
  const std::uint64_t k = 20;
  OccupancyDistribution occ(k);
  for (int step = 0; step < 100; ++step) {
    const double l = static_cast<double>(occ.balls());
    const double expected =
        static_cast<double>(k) *
        (1.0 - std::pow(1.0 - 1.0 / static_cast<double>(k), l));
    EXPECT_NEAR(occ.mean(), expected, 1e-10) << "l=" << l;
    occ.step();
  }
}

TEST(Occupancy, RecursionMatchesTheorem6ClosedForm) {
  // P{N_l = i} = S(l,i) k! / (k^l (k-i)!) — cross-check recursion against
  // the Stirling closed form for every reachable (l, i).
  for (std::uint64_t k : {2ull, 5ull, 9ull}) {
    OccupancyDistribution occ(k);
    for (std::uint64_t l = 1; l <= 25; ++l) {
      for (std::uint64_t i = 1; i <= std::min(k, l); ++i) {
        EXPECT_NEAR(occ.pmf(i), occupancy_pmf_closed_form(k, l, i), 1e-10)
            << "k=" << k << " l=" << l << " i=" << i;
      }
      occ.step();
    }
  }
}

TEST(Occupancy, CollisionProbabilityIsMeanOverK) {
  OccupancyDistribution occ(15);
  for (int step = 0; step < 40; ++step) {
    EXPECT_NEAR(occ.next_collision_probability(), occ.mean() / 15.0, 1e-12);
    occ.step();
  }
}

TEST(Occupancy, AllOccupiedProbabilityIsMonotone) {
  OccupancyDistribution occ(8);
  double prev = occ.all_occupied_probability();
  for (int step = 0; step < 200; ++step) {
    occ.step();
    const double cur = occ.all_occupied_probability();
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_GT(prev, 0.999);  // 200 balls into 8 urns: surely all occupied
}

// --- Table I oracle values --------------------------------------------------

struct TableOneRow {
  std::uint64_t k;
  std::uint64_t s;
  double eta;
  std::uint64_t expected_L;
};

class TargetedEffortTableTest : public ::testing::TestWithParam<TableOneRow> {};

TEST_P(TargetedEffortTableTest, MatchesPaperTable1) {
  const auto& row = GetParam();
  EXPECT_EQ(targeted_attack_effort(row.k, row.s, row.eta), row.expected_L);
}

// The k <= 50 rows match the paper's Table I digit-for-digit.  The two
// k = 250 rows differ by a hair (paper: 1138 and 2871): at k = 250 the
// strict-inequality boundary of Eq. 2 falls within the paper's print
// precision — the closed-form solve gives l - 1 > 1137.85 (=> L = 1139)
// and l - 1 > 2872.3 (=> L = 2874).  EXPERIMENTS.md discusses the deltas.
INSTANTIATE_TEST_SUITE_P(
    PaperTable1, TargetedEffortTableTest,
    ::testing::Values(TableOneRow{10, 5, 1e-1, 38},    //
                      TableOneRow{10, 5, 1e-4, 104},   //
                      TableOneRow{50, 5, 1e-1, 193},   //
                      TableOneRow{50, 10, 1e-1, 227},  //
                      TableOneRow{50, 40, 1e-1, 296},  //
                      TableOneRow{50, 5, 1e-4, 537},   //
                      TableOneRow{50, 10, 1e-4, 571},  //
                      TableOneRow{50, 40, 1e-4, 640},  //
                      TableOneRow{250, 10, 1e-1, 1139},   // paper prints 1138
                      TableOneRow{250, 10, 1e-4, 2874})); // paper prints 2871

TEST(TargetedEffort, ClosedFormCrossCheck) {
  // E[N_l] = k(1 - (1-1/k)^l) gives L_{k,s} analytically:
  // smallest l with (1 - (1-1/k)^(l-1))^s > 1 - eta.
  for (std::uint64_t k : {10ull, 50ull, 250ull}) {
    for (std::uint64_t s : {5ull, 10ull}) {
      for (double eta : {1e-1, 1e-4}) {
        const double target = std::pow(1.0 - eta, 1.0 / static_cast<double>(s));
        const double q = 1.0 - 1.0 / static_cast<double>(k);
        const double lm1 = std::log(1.0 - target) / std::log(q);
        const std::uint64_t analytic =
            static_cast<std::uint64_t>(std::floor(lm1)) + 2;
        EXPECT_EQ(targeted_attack_effort(k, s, eta), analytic)
            << "k=" << k << " s=" << s << " eta=" << eta;
      }
    }
  }
}

struct FloodRow {
  std::uint64_t k;
  double eta;
  std::uint64_t expected_E;
};

class FloodingEffortTableTest : public ::testing::TestWithParam<FloodRow> {};

TEST_P(FloodingEffortTableTest, MatchesPaperTable1) {
  const auto& row = GetParam();
  EXPECT_EQ(flooding_attack_effort(row.k, row.eta), row.expected_E);
}

// k = 10 and k = 50 match the paper (650 vs 651 is the strict-inequality
// boundary at print precision).  The paper's k = 250 entries (1617, 3363)
// are NOT consistent with its own Eq. 5: the exact occupancy recursion —
// and the classic coupon-collector asymptotic P{U_k <= l} ~ exp(-k e^{-l/k}),
// and the Monte-Carlo test below — all give ~1940/~3676; 1617 balls fill
// 250 urns only ~68% of the time.  This looks like overflow/cancellation in
// the paper's Stirling-formula evaluation at l > 1500.  See EXPERIMENTS.md.
INSTANTIATE_TEST_SUITE_P(PaperTable1, FloodingEffortTableTest,
                         ::testing::Values(FloodRow{10, 1e-1, 44},    //
                                           FloodRow{10, 1e-4, 110},   //
                                           FloodRow{50, 1e-1, 306},   //
                                           FloodRow{50, 1e-4, 650},   // paper prints 651
                                           FloodRow{250, 1e-1, 1940}, // paper prints 1617
                                           FloodRow{250, 1e-4, 3676}));// paper prints 3363

TEST(FloodingEffort, AsymptoticCrossCheckAtK250) {
  // exp(-k e^{-l/k}) = 1 - eta  =>  l = -k ln(-ln(1-eta)/k).
  const double k = 250.0;
  for (double eta : {1e-1, 1e-4}) {
    const double l = -k * std::log(-std::log(1.0 - eta) / k);
    const double computed =
        static_cast<double>(flooding_attack_effort(250, eta));
    EXPECT_NEAR(computed, l, 8.0) << "eta=" << eta;
  }
}

TEST(FloodingEffort, MonteCarloValidatesExactRecursionAtK250) {
  // Throw balls uniformly into 250 urns; the fill probability at our
  // E_250 = 1940 must be ~0.9, and at the paper's printed 1617 only ~0.68.
  auto fill_rate = [](std::uint64_t balls, int trials) {
    Xoshiro256 rng(4242);
    int filled = 0;
    std::vector<bool> urn(250);
    for (int t = 0; t < trials; ++t) {
      std::fill(urn.begin(), urn.end(), false);
      std::size_t occupied = 0;
      for (std::uint64_t b = 0; b < balls && occupied < 250; ++b) {
        const std::size_t u = rng.next_below(250);
        if (!urn[u]) {
          urn[u] = true;
          ++occupied;
        }
      }
      if (occupied == 250) ++filled;
    }
    return static_cast<double>(filled) / trials;
  };
  EXPECT_NEAR(fill_rate(1940, 1500), 0.90, 0.04);
  EXPECT_NEAR(fill_rate(1617, 1500), 0.68, 0.06);
}

// --- Structural properties of the effort functions -------------------------

TEST(TargetedEffort, IncreasesWithK) {
  std::uint64_t prev = 0;
  for (std::uint64_t k = 10; k <= 200; k += 10) {
    const std::uint64_t L = targeted_attack_effort(k, 10, 0.5);
    EXPECT_GT(L, prev);
    prev = L;
  }
}

TEST(TargetedEffort, IncreasesWithS) {
  std::uint64_t prev = 0;
  for (std::uint64_t s : {1u, 2u, 5u, 10u, 20u, 40u}) {
    const std::uint64_t L = targeted_attack_effort(50, s, 0.1);
    EXPECT_GE(L, prev);
    prev = L;
  }
}

TEST(TargetedEffort, IncreasesAsEtaShrinks) {
  std::uint64_t prev = 0;
  for (double eta : {0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6}) {
    const std::uint64_t L = targeted_attack_effort(50, 10, eta);
    EXPECT_GE(L, prev);
    prev = L;
  }
}

TEST(FloodingEffort, UpperBoundsTargetedEffort) {
  // Fig. 4's caption: E_k "shows the upper bound of L_{k,s}" — filling
  // every urn certainly collides with any victim's counter.  The inequality
  // between the two THRESHOLD definitions holds for the s regimes the paper
  // plots (s <= 10); at very large s the targeted criterion
  // (E[N]/k)^s > 1-eta demands near-complete fill and can exceed E_k.
  for (std::uint64_t k : {10ull, 50ull, 100ull}) {
    for (double eta : {0.5, 1e-1, 1e-3}) {
      for (std::uint64_t s : {1ull, 2ull, 5ull}) {
        EXPECT_LE(targeted_attack_effort(k, s, eta),
                  flooding_attack_effort(k, eta))
            << "k=" << k << " s=" << s << " eta=" << eta;
      }
    }
  }
}

TEST(FloodingEffort, AtLeastKBalls) {
  for (std::uint64_t k : {2ull, 10ull, 50ull})
    EXPECT_GE(flooding_attack_effort(k, 0.5), k);
}

TEST(FloodingEffort, IndependentOfPopulationSize) {
  // The paper's headline scalability claim: effort depends only on the
  // sampler's memory (k, s), never on n — there is no n anywhere in the
  // model, so this is definitional; the test documents it.
  EXPECT_EQ(flooding_attack_effort(50, 0.1), 306u);
}

TEST(FloodingEffort, TracksCouponCollectorMean) {
  // E_k at eta = 0.5 is near the coupon-collector median ~ k ln k; allow a
  // wide band (the median is below the mean, which has a +gamma*k term).
  for (std::uint64_t k : {20ull, 50ull, 100ull}) {
    const double mean = coupon_collector_mean(k);
    const double ek = static_cast<double>(flooding_attack_effort(k, 0.5));
    EXPECT_GT(ek, 0.6 * mean);
    EXPECT_LT(ek, 1.3 * mean);
  }
}

TEST(CouponCollector, CdfMatchesOccupancy) {
  EXPECT_NEAR(coupon_collector_cdf(5, 5), 120.0 / 3125.0, 1e-12);  // 5!/5^5
  EXPECT_NEAR(coupon_collector_cdf(2, 2), 0.5, 1e-12);
  EXPECT_NEAR(coupon_collector_cdf(1, 1), 1.0, 1e-12);
}

TEST(EffortFunctions, RejectBadParameters) {
  EXPECT_THROW(targeted_attack_effort(10, 0, 0.1), std::invalid_argument);
  EXPECT_THROW(targeted_attack_effort(10, 5, 0.0), std::invalid_argument);
  EXPECT_THROW(targeted_attack_effort(10, 5, 1.0), std::invalid_argument);
  EXPECT_THROW(flooding_attack_effort(10, -0.5), std::invalid_argument);
  EXPECT_THROW(OccupancyDistribution(0), std::invalid_argument);
}

TEST(EffortFunctions, RejectNanEta) {
  // NaN fails every comparison, so a `e <= 0 || e >= 1` guard let it
  // through to a search that never converges.
  const double nan = std::nan("");
  EXPECT_THROW(targeted_attack_effort(10, 5, nan), std::invalid_argument);
  EXPECT_THROW(flooding_attack_effort(10, nan), std::invalid_argument);
  const double etas[] = {0.5, nan};
  EXPECT_THROW(targeted_attack_efforts(10, 5, etas), std::invalid_argument);
  EXPECT_THROW(flooding_attack_efforts(10, etas), std::invalid_argument);
}

}  // namespace
}  // namespace unisamp
