#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "util/csv.hpp"
#include "util/flat_set.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace unisamp {
namespace {

TEST(SplitMix, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const auto x1 = a.next();
  EXPECT_EQ(x1, b.next());
  EXPECT_NE(x1, c.next());
  // Consecutive outputs differ.
  EXPECT_NE(a.next(), a.next());
}

TEST(SplitMix, StatelessMixIsInjectiveOnSample) {
  std::set<std::uint64_t> images;
  for (std::uint64_t x = 0; x < 10000; ++x)
    images.insert(SplitMix64::mix(x));
  EXPECT_EQ(images.size(), 10000u);
}

TEST(Xoshiro, SameSeedSameSequence) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, NextBelowRespectsBound) {
  Xoshiro256 rng(11);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
  Xoshiro256 rng(123);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kDraws = 160000;
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double stat = chi_square_statistic(counts);
  EXPECT_LT(stat, chi_square_critical(kBuckets - 1, 0.001));
}

TEST(Xoshiro, BernoulliFrequencyTracksP) {
  Xoshiro256 rng(5);
  for (double p : {0.1, 0.5, 0.9}) {
    int hits = 0;
    constexpr int kTrials = 100000;
    for (int i = 0; i < kTrials; ++i)
      if (rng.bernoulli(p)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / kTrials, p, 0.01);
  }
}

TEST(DeriveSeed, DistinctComponentsGetDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i)
    seeds.insert(derive_seed(99, i));
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_EQ(derive_seed(99, 5), derive_seed(99, 5));
  EXPECT_NE(derive_seed(99, 5), derive_seed(100, 5));
}

TEST(ParseU64, AcceptsDigitsOverTheFullRange) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("007"), 7u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
}

TEST(ParseU64, RejectsSignsWhitespaceJunkAndOverflow) {
  for (const char* text :
       {"", "-1", "-0", "+5", " 5", "5 ", "\t5", "5\n", "12abc", "abc",
        "0x10", "1e3", "1.0", "18446744073709551616",
        "99999999999999999999999"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parse_u64(text).has_value());
  }
}

TEST(ParseF64, AcceptsFiniteDecimalAndScientific) {
  EXPECT_EQ(parse_f64("0.5"), 0.5);
  EXPECT_EQ(parse_f64("0"), 0.0);
  EXPECT_EQ(parse_f64("-2"), -2.0);
  EXPECT_EQ(parse_f64("1e-3"), 1e-3);
  EXPECT_EQ(parse_f64(".25"), 0.25);
  EXPECT_EQ(parse_f64("1.7976931348623157e308"), 1.7976931348623157e308);
}

TEST(ParseF64, RejectsJunkWhitespaceSignsAndNonFinite) {
  for (const char* text :
       {"", "0.5x", "abc", " 0.5", "0.5 ", "+0.5", "0.5\n", "1e", "--1",
        "0x1p-2", "nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e999",
        "-1e999"}) {
    SCOPED_TRACE(text);
    EXPECT_FALSE(parse_f64(text).has_value());
  }
}

TEST(Csv, WritesQuotedCells) {
  const std::string path = "/tmp/unisamp_csv_test.csv";
  {
    CsvWriter w(path);
    w.header({"a", "b,comma", "c"});
    w.row({"1", "say \"hi\"", "line\nbreak"});
    w.row_numeric({1.5, 2.25, -3.0});
    EXPECT_TRUE(w.good());
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("a,\"b,comma\",c"), std::string::npos);
  EXPECT_NE(content.find("\"say \"\"hi\"\"\""), std::string::npos);
  EXPECT_NE(content.find("1.5,2.25,-3"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Csv, FormatUsesCompactRepresentation) {
  EXPECT_EQ(CsvWriter::format(1.0), "1");
  EXPECT_EQ(CsvWriter::format(0.5), "0.5");
}

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name | 22    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(AsciiTable, HandlesRaggedRows) {
  AsciiTable t;
  t.add_row({"a"});
  t.add_row({"b", "c", "d"});
  const std::string out = t.render();
  EXPECT_FALSE(out.empty());
}

TEST(Heatmap, UsesFullRampAndShape) {
  std::vector<double> values = {0.0, 0.25, 0.5, 1.0};
  const std::string out = render_heatmap(values, 2, 2);
  // 2 rows of 2 chars + newlines.
  EXPECT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], ' ');   // zero cell is blank
  EXPECT_EQ(out[4], '@');   // max cell is darkest ramp char
}

TEST(Heatmap, AllZerosRendersBlank) {
  const std::string out = render_heatmap({0, 0, 0, 0}, 2, 2);
  EXPECT_EQ(out, "  \n  \n");
}

TEST(FormatHelpers, Commas) {
  EXPECT_EQ(format_with_commas(0), "0");
  EXPECT_EQ(format_with_commas(999), "999");
  EXPECT_EQ(format_with_commas(1000), "1,000");
  EXPECT_EQ(format_with_commas(1891715), "1,891,715");
  EXPECT_EQ(format_with_commas(-1234567), "-1,234,567");
}

TEST(FormatHelpers, Doubles) {
  EXPECT_EQ(format_double(3.14159, 3), "3.14");
  EXPECT_EQ(format_double(1000000.0, 4), "1e+06");
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.variance, 5.0 / 3.0, 1e-12);
  EXPECT_EQ(s.count, 4u);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, ChiSquareZeroForExactUniform) {
  const std::vector<std::uint64_t> counts = {100, 100, 100, 100};
  EXPECT_DOUBLE_EQ(chi_square_statistic(counts), 0.0);
}

TEST(Stats, ChiSquareDetectsSkew) {
  const std::vector<std::uint64_t> counts = {400, 0, 0, 0};
  EXPECT_GT(chi_square_statistic(counts), chi_square_critical(3, 0.001));
}

TEST(Stats, ChiSquareCriticalValuesSane) {
  // Reference values: chi2_{0.05}(10) = 18.307, chi2_{0.01}(50) = 76.154.
  EXPECT_NEAR(chi_square_critical(10, 0.05), 18.307, 0.5);
  EXPECT_NEAR(chi_square_critical(50, 0.01), 76.154, 1.5);
}

TEST(FlatIdSet, MatchesReferenceSetUnderRandomChurn) {
  // Random insert/erase/contains churn, checked against std::set — covers
  // collision runs, wraparound, and backward-shift deletion.
  FlatIdSet set(32);
  std::set<std::uint64_t> ref;
  SplitMix64 rng(7);
  for (int op = 0; op < 50000; ++op) {
    const std::uint64_t id = rng.next() % 97;  // dense domain forces runs
    if (ref.contains(id)) {
      ASSERT_TRUE(set.contains(id)) << "op " << op;
      if (rng.next() % 2) {
        set.erase(id);
        ref.erase(id);
      }
    } else {
      ASSERT_FALSE(set.contains(id)) << "op " << op;
      set.insert(id);
      ref.insert(id);
    }
    ASSERT_EQ(set.size(), ref.size());
  }
  for (std::uint64_t id = 0; id < 97; ++id)
    ASSERT_EQ(set.contains(id), ref.contains(id)) << "id " << id;
}

TEST(FlatIdSet, GrowsPastExpectedCapacity) {
  // The constructor hint is an optimisation, not a limit: inserting far
  // beyond it must rehash, not degrade or hang.
  FlatIdSet set(1);
  for (std::uint64_t id = 0; id < 3000; ++id) set.insert(id * 0x9E3779B9ULL);
  EXPECT_EQ(set.size(), 3000u);
  for (std::uint64_t id = 0; id < 3000; ++id)
    ASSERT_TRUE(set.contains(id * 0x9E3779B9ULL)) << id;
  EXPECT_FALSE(set.contains(42));
  for (std::uint64_t id = 0; id < 3000; id += 2) set.erase(id * 0x9E3779B9ULL);
  EXPECT_EQ(set.size(), 1500u);
  for (std::uint64_t id = 0; id < 3000; ++id)
    ASSERT_EQ(set.contains(id * 0x9E3779B9ULL), id % 2 == 1) << id;
}

}  // namespace
}  // namespace unisamp
