#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <numeric>

#include "stream/discrete_sampler.hpp"
#include "stream/generators.hpp"
#include "stream/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace unisamp {
namespace {

TEST(DiscreteSampler, RespectsWeights) {
  const std::vector<double> w = {1.0, 3.0};
  DiscreteSampler s(w);
  EXPECT_NEAR(s.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(s.probability(1), 0.75, 1e-12);
  Xoshiro256 rng(1);
  int ones = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i)
    if (s.sample(rng) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.75, 0.01);
}

TEST(DiscreteSampler, UniformWeightsPassChiSquare) {
  const std::vector<double> w(20, 1.0);
  DiscreteSampler s(w);
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> counts(20, 0);
  for (int i = 0; i < 200000; ++i) ++counts[s.sample(rng)];
  EXPECT_LT(chi_square_statistic(counts), chi_square_critical(19, 0.001));
}

TEST(DiscreteSampler, HandlesZeroWeightEntries) {
  const std::vector<double> w = {0.0, 1.0, 0.0, 1.0};
  DiscreteSampler s(w);
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const std::size_t x = s.sample(rng);
    EXPECT_TRUE(x == 1 || x == 3);
  }
}

TEST(DiscreteSampler, RejectsBadWeights) {
  EXPECT_THROW(DiscreteSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(DiscreteSampler(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(ZipfWeights, MonotoneDecreasingAndShape) {
  const auto w = zipf_weights(100, 2.0);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  // w_1 / w_2 = 2^alpha.
  EXPECT_NEAR(w[0] / w[1], 4.0, 1e-9);
}

TEST(ZipfWeights, AlphaZeroIsUniform) {
  const auto w = zipf_weights(10, 0.0);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(TruncatedPoissonWeights, PeaksNearLambda) {
  const std::size_t n = 1000;
  const double lambda = 500;
  const auto w = truncated_poisson_weights(n, lambda);
  const std::size_t argmax = static_cast<std::size_t>(
      std::distance(w.begin(), std::max_element(w.begin(), w.end())));
  EXPECT_NEAR(static_cast<double>(argmax), lambda, 1.5);
  // Mass far from lambda is negligible: the over-represented band is narrow
  // (~sqrt(lambda)), reproducing the "50 ids over represented" of Fig. 7b.
  EXPECT_LT(w[300] / w[argmax], 1e-12);
  EXPECT_LT(w[700] / w[argmax], 1e-12);
}

TEST(TruncatedPoissonWeights, RejectsBadParams) {
  EXPECT_THROW(truncated_poisson_weights(0, 5.0), std::invalid_argument);
  EXPECT_THROW(truncated_poisson_weights(10, 0.0), std::invalid_argument);
}

TEST(WeightedStreamGenerator, DeterministicBySeed) {
  const auto w = zipf_weights(50, 1.0);
  WeightedStreamGenerator g1(w, 42), g2(w, 42), g3(w, 43);
  const auto s1 = g1.take(100);
  const auto s2 = g2.take(100);
  const auto s3 = g3.take(100);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1, s3);
}

TEST(WeightedStreamGenerator, ExposesProbabilities) {
  const std::vector<double> w = {3.0, 1.0};
  WeightedStreamGenerator g(w, 1);
  EXPECT_NEAR(g.probability(0), 0.75, 1e-12);
  EXPECT_EQ(g.domain(), 2u);
}

TEST(ExactStream, MultiplicitiesAreExact) {
  const std::vector<std::uint64_t> counts = {3, 0, 5, 1};
  const Stream s = exact_stream(counts, 9);
  EXPECT_EQ(s.size(), 9u);
  FrequencyHistogram h;
  h.add_stream(s);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.count(2), 5u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(ExactStream, ShuffleDependsOnSeed) {
  const std::vector<std::uint64_t> counts(50, 2);
  const Stream a = exact_stream(counts, 1);
  const Stream b = exact_stream(counts, 2);
  EXPECT_NE(a, b);
  // Same seed reproduces.
  EXPECT_EQ(a, exact_stream(counts, 1));
}

TEST(ExactStream, ShuffleIsNotSorted) {
  std::vector<std::uint64_t> counts(100, 10);
  const Stream s = exact_stream(counts, 3);
  EXPECT_FALSE(std::is_sorted(s.begin(), s.end()));
}

TEST(PeakAttackCounts, MatchesPaperScenario) {
  // "injects 50,000 times a single node identifier while all the other
  // identifiers occur 50 times" (Sec. VI-B).
  const auto counts = peak_attack_counts(1000, 0, 50000, 50);
  EXPECT_EQ(counts[0], 50000u);
  for (std::size_t i = 1; i < 1000; ++i) EXPECT_EQ(counts[i], 50u);
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, 50000u + 999u * 50u);
}

TEST(CountsFromWeights, SumCloseToMAndMinRespected) {
  const auto w = zipf_weights(100, 1.5);
  const auto counts = counts_from_weights(w, 10000, 2);
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, 10000u);
  for (auto c : counts) EXPECT_GE(c, 2u);
}

TEST(CountsFromWeights, HeaviestAbsorbsRounding) {
  const std::vector<double> w = {1.0, 1.0, 1.0};
  const auto counts = counts_from_weights(w, 10, 1);
  const std::uint64_t total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, 10u);
}

TEST(Histogram, BasicAccounting) {
  FrequencyHistogram h;
  h.add(5);
  h.add(5);
  h.add(9, 3);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.distinct(), 2u);
  EXPECT_EQ(h.count(5), 2u);
  EXPECT_EQ(h.count(9), 3u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.max_frequency(), 3u);
  EXPECT_EQ(h.most_frequent_id(), 9u);
}

TEST(Histogram, SortedFrequenciesDescending) {
  FrequencyHistogram h;
  h.add(1, 5);
  h.add(2, 9);
  h.add(3, 1);
  const auto f = h.sorted_frequencies();
  EXPECT_EQ(f, (std::vector<std::uint64_t>{9, 5, 1}));
}

TEST(Histogram, DistributionNormalised) {
  FrequencyHistogram h;
  h.add(0, 1);
  h.add(1, 3);
  const auto d = h.distribution(2);
  EXPECT_NEAR(d[0], 0.25, 1e-12);
  EXPECT_NEAR(d[1], 0.75, 1e-12);
}

TEST(Histogram, AddZeroCountIsNoOp) {
  FrequencyHistogram h;
  h.add(7, 0);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.distinct(), 0u);
  EXPECT_EQ(h.count(7), 0u);
  EXPECT_TRUE(h.raw().begin() == h.raw().end());
  EXPECT_EQ(h, FrequencyHistogram{});

  h.add(7);
  h.add(9, 0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.distinct(), 1u);
  EXPECT_EQ(h.count(9), 0u);
  EXPECT_EQ(h.sorted_frequencies(), (std::vector<std::uint64_t>{1}));
}

TEST(Histogram, EqualityIgnoresInsertionOrder) {
  FrequencyHistogram forward, backward;
  for (NodeId id = 0; id < 100; ++id) forward.add(id, id % 7 + 1);
  for (NodeId id = 100; id-- > 0;) backward.add(id, id % 7 + 1);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(FrequencyHistogram{}, FrequencyHistogram{});

  // Same total and distinct, one count differs.
  FrequencyHistogram plus3 = forward, plus4 = forward;
  plus3.add(3);
  plus4.add(4);
  EXPECT_NE(plus3, plus4);
  // Same total and distinct, one id differs.
  FrequencyHistogram plus1000 = forward, plus1001 = forward;
  plus1000.add(1000);
  plus1001.add(1001);
  EXPECT_NE(plus1000, plus1001);
  EXPECT_NE(forward, plus3);  // total differs
  EXPECT_NE(plus3, plus1000);  // distinct differs
  EXPECT_NE(FrequencyHistogram{}, forward);
}

// Everything FrequencyHistogram reports, recomputed from a std::map oracle.
void expect_matches_oracle(const FrequencyHistogram& h,
                           const std::map<NodeId, std::uint64_t>& oracle,
                           std::span<const NodeId> absent) {
  std::uint64_t total = 0, best = 0;
  NodeId best_id = 0;
  std::vector<std::uint64_t> freqs;
  for (const auto& [id, c] : oracle) {
    EXPECT_EQ(h.count(id), c) << "id " << id;
    total += c;
    freqs.push_back(c);
    if (c > best) {  // ascending ids: the first maximum is the smallest id
      best = c;
      best_id = id;
    }
  }
  for (const NodeId id : absent) {
    if (!oracle.contains(id)) {
      EXPECT_EQ(h.count(id), 0u) << "id " << id;
    }
  }
  EXPECT_EQ(h.total(), total);
  EXPECT_EQ(h.distinct(), oracle.size());
  EXPECT_EQ(h.max_frequency(), best);
  EXPECT_EQ(h.most_frequent_id(), best_id);
  std::sort(freqs.rbegin(), freqs.rend());
  EXPECT_EQ(h.sorted_frequencies(), freqs);

  constexpr std::uint64_t kDense = 300;
  std::vector<double> dist(kDense, 0.0);
  std::uint64_t counted = 0;
  for (const auto& [id, c] : oracle) {
    if (id >= kDense) break;
    dist[id] = static_cast<double>(c);
    counted += c;
  }
  if (counted > 0)
    for (double& x : dist) x /= static_cast<double>(counted);
  EXPECT_EQ(h.distribution(kDense), dist);

  // raw() yields every entry exactly once: sorted, it is the oracle.
  std::vector<FrequencyHistogram::Entry> entries(h.raw().begin(),
                                                 h.raw().end());
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(entries, (std::vector<FrequencyHistogram::Entry>(oracle.begin(),
                                                             oracle.end())));
}

// True when id's hash has its top 10 bits set: in every table of up to 1024
// slots such ids share the last slot as home, so their probe runs pile up
// and wrap around to slot 0.
bool homes_in_last_slot(NodeId id) {
  return FrequencyHistogram::hash(id) >> 54 == 1023;
}

std::vector<NodeId> colliding_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (NodeId id = 1u << 20; ids.size() < n; ++id)
    if (homes_in_last_slot(id)) ids.push_back(id);
  return ids;
}

TEST(Histogram, MatchesMapOracleAcrossGrowth) {
  constexpr NodeId kMaxId = std::numeric_limits<NodeId>::max();
  const std::vector<NodeId> colliding = colliding_ids(48);
  Xoshiro256 rng(20130624);
  // Ids 0 and 2^64-1, hash collisions, ids equal in their low 32 bits and a
  // dense range that widens each round, so the table keeps growing.
  const auto draw = [&](int round) -> NodeId {
    switch (rng.next_below(8)) {
      case 0: return rng.next_below(2) == 0 ? NodeId{0} : kMaxId;
      case 1: return colliding[rng.next_below(colliding.size())];
      case 2: return (rng.next_below(64) + 1) << 32;
      default:
        return rng.next_below(500 * static_cast<std::uint64_t>(round + 1));
    }
  };

  FrequencyHistogram batched, per_id;
  std::map<NodeId, std::uint64_t> oracle;
  std::vector<NodeId> absent = {1, kMaxId - 1, std::uint64_t{65} << 32,
                                (std::uint64_t{1} << 32) | 1};
  for (NodeId id = colliding.back() + 1; absent.size() < 12; ++id)
    if (homes_in_last_slot(id)) absent.push_back(id);

  constexpr std::array<std::size_t, 6> kBatchLengths = {0, 1, 15, 16, 17,
                                                        1000};
  for (int round = 0; round < 12; ++round) {
    for (const std::size_t len : kBatchLengths) {
      SCOPED_TRACE(::testing::Message()
                   << "round " << round << ", batch of " << len);
      Stream batch(len);
      for (NodeId& id : batch) id = draw(round);
      batched.add_stream(batch);
      for (const NodeId id : batch) {
        per_id.add(id);
        ++oracle[id];
      }
      expect_matches_oracle(batched, oracle, absent);
      expect_matches_oracle(per_id, oracle, absent);
      EXPECT_EQ(batched, per_id);
      if (HasFailure()) return;
    }
    // Bulk counts, on a colliding id and on an extreme one.
    const std::uint64_t big = std::uint64_t{1} << (40 + round);
    const NodeId heavy = round % 2 == 0 ? colliding[round] : kMaxId;
    batched.add(heavy, big);
    per_id.add(heavy, big);
    oracle[heavy] += big;
    expect_matches_oracle(batched, oracle, absent);
    EXPECT_EQ(batched, per_id);
    if (HasFailure()) return;
  }
  // Past 3/4 of 4096 slots: the table grew nine times, from 16 to 8192.
  EXPECT_GT(oracle.size(), 3072u);
}

// count_if against a sum over raw(), for the predicates "all", "none" and
// "odd id".
void expect_count_if_matches_raw(const FrequencyHistogram& h) {
  std::uint64_t all = 0, odd = 0;
  for (const auto& [id, c] : h.raw()) {
    all += c;
    if (id % 2 == 1) odd += c;
  }
  EXPECT_EQ(h.count_if([](NodeId) { return true; }), all);
  EXPECT_EQ(h.count_if([](NodeId) { return false; }), 0u);
  EXPECT_EQ(h.count_if([](NodeId id) { return id % 2 == 1; }), odd);
  EXPECT_EQ(all, h.total());
}

TEST(Histogram, CountIfMatchesRawSum) {
  FrequencyHistogram h;  // unallocated: no slots at all
  expect_count_if_matches_raw(h);
  EXPECT_EQ(h.count_if([](NodeId) { return true; }), 0u);

  // A real id 0 with a nonzero count: empty slots also hold id 0, and only
  // their zero count keeps them out of the sum.
  h.add(0, 7);
  expect_count_if_matches_raw(h);
  EXPECT_EQ(h.count_if([](NodeId id) { return id == 0; }), 7u);

  // Grow from 16 to 2048 slots, checking after every doubling.
  std::size_t seen_distinct = h.distinct();
  for (NodeId id = 1; id < 1500; ++id) {
    h.add(id * 3, id % 5 + 1);
    h.add(std::numeric_limits<NodeId>::max() - id);
    if (h.distinct() >= 2 * seen_distinct) {
      seen_distinct = h.distinct();
      expect_count_if_matches_raw(h);
    }
  }
  expect_count_if_matches_raw(h);
  EXPECT_EQ(h.count_if([](NodeId id) { return id == 0; }), 7u);
  EXPECT_GT(h.distinct(), 2000u);
}

// Tied maxima resolve to the smallest id, whatever the slot order.
TEST(Histogram, MostFrequentIdBreaksTiesBySmallestId) {
  const std::vector<NodeId> colliding = colliding_ids(6);
  FrequencyHistogram h;
  for (auto it = colliding.rbegin(); it != colliding.rend(); ++it)
    h.add(*it, 5);
  h.add(std::numeric_limits<NodeId>::max(), 5);
  EXPECT_EQ(h.most_frequent_id(), colliding.front());
  h.add(0, 5);
  EXPECT_EQ(h.most_frequent_id(), 0u);
}

TEST(ComputeStats, MatchesTableIIShape) {
  const std::vector<std::uint64_t> counts = {10, 5, 1};
  const Stream s = exact_stream(counts, 4);
  const TraceStats stats = compute_stats(s);
  EXPECT_EQ(stats.stream_size, 16u);
  EXPECT_EQ(stats.distinct_ids, 3u);
  EXPECT_EQ(stats.max_frequency, 10u);
}

}  // namespace
}  // namespace unisamp
