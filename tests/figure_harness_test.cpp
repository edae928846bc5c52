// Unit tests for the bench_harness figure-runner layer
// (src/bench_harness/figure.hpp) and for the ported figure definitions in
// bench/ (linked from the unisamp_figures library):
//  - shared CLI parsing (--quick / --seed= / --out-dir=),
//  - Sweep full/quick selection,
//  - series checksum behaviour (per-row and whole-series),
//  - sweep determinism: the same seed must produce bit-identical series —
//    and therefore checksums — for ANY thread count (the figures average
//    trials on the util/parallel pool),
//  - unisamp-figure-v1 sidecar validity: syntactically well-formed JSON
//    carrying the required schema fields for at least three ported figures,
//  - every kernels row's 64-bit checksum at --quick, so a drifting kernel
//    is named in tier-1 and the sanitizer jobs, not only as one folded
//    series checksum in the figure smoke gate.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bench_harness/figure.hpp"
#include "figures.hpp"
#include "util/parallel.hpp"

namespace unisamp::bench_harness {
namespace {

// --- minimal JSON syntax scanner -------------------------------------------
// The repo bakes in no JSON parser; the sidecars are consumed by Python
// tooling, so the C++-side contract is "syntactically valid JSON with the
// documented members".  This scanner accepts exactly the JSON grammar (no
// extensions) and reports whether the whole input is one value.

class JsonScanner {
 public:
  explicit JsonScanner(std::string text) : text_(std::move(text)) {}

  bool valid() {
    pos_ = 0;
    const bool ok = value();
    ws();
    return ok && pos_ == text_.size();
  }

 private:
  void ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    return pos_ > start;
  }
  bool number() {
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '0')
      ++pos_;  // no leading zeros: "0" may not be followed by digits
    else if (!digits())
      return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) return false;
    }
    return true;
  }
  bool value() {
    ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          ws();
          if (!string()) return false;
          ws();
          if (pos_ >= text_.size() || text_[pos_] != ':') return false;
          ++pos_;
          if (!value()) return false;
          ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        if (pos_ >= text_.size() || text_[pos_] != '}') return false;
        ++pos_;
        return true;
      }
      case '[': {
        ++pos_;
        ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          if (!value()) return false;
          ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          break;
        }
        if (pos_ >= text_.size() || text_[pos_] != ']') return false;
        ++pos_;
        return true;
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  std::string text_;  // by value: scanners are built from temporaries
  std::size_t pos_ = 0;
};

// Restores automatic thread-count resolution when a test exits.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_trial_threads(0); }
};

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

TEST(FigureCliTest, DefaultsAndFlags) {
  const auto none = argv_of({"prog"});
  FigureCli cli = parse_figure_cli(1, none.data());
  EXPECT_TRUE(cli.error.empty());
  EXPECT_FALSE(cli.quick);
  EXPECT_FALSE(cli.help);
  EXPECT_EQ(cli.seed, 0u);
  EXPECT_EQ(cli.out_dir, "bench_results");

  const auto all =
      argv_of({"prog", "--quick", "--seed=42", "--out-dir=/tmp/x"});
  cli = parse_figure_cli(4, all.data());
  EXPECT_TRUE(cli.error.empty());
  EXPECT_TRUE(cli.quick);
  EXPECT_EQ(cli.seed, 42u);
  EXPECT_EQ(cli.out_dir, "/tmp/x");

  const auto help = argv_of({"prog", "--help"});
  cli = parse_figure_cli(2, help.data());
  EXPECT_TRUE(cli.help);
}

TEST(FigureCliTest, RejectsUnknownAndMalformed) {
  const auto unknown = argv_of({"prog", "--frobnicate"});
  EXPECT_FALSE(parse_figure_cli(2, unknown.data()).error.empty());
  const auto bad_seed = argv_of({"prog", "--seed=banana"});
  EXPECT_FALSE(parse_figure_cli(2, bad_seed.data()).error.empty());
  const auto zero_seed = argv_of({"prog", "--seed=0"});
  EXPECT_FALSE(parse_figure_cli(2, zero_seed.data()).error.empty());
  const auto empty_dir = argv_of({"prog", "--out-dir="});
  EXPECT_FALSE(parse_figure_cli(2, empty_dir.data()).error.empty());
}

// The seed is digits only: strtoull would wrap "-1" to 2^64-1 and skip the
// space in "--seed= 5".
TEST(FigureCliTest, RejectsSignedAndPaddedSeeds) {
  for (const char* arg :
       {"--seed=-1", "--seed= 5", "--seed=+5", "--seed=5 ",
        "--seed=18446744073709551616", "--seed="}) {
    SCOPED_TRACE(arg);
    const auto argv = argv_of({"prog", arg});
    EXPECT_FALSE(parse_figure_cli(2, argv.data()).error.empty());
  }
  const auto max_seed = argv_of({"prog", "--seed=18446744073709551615"});
  const FigureCli cli = parse_figure_cli(2, max_seed.data());
  EXPECT_TRUE(cli.error.empty());
  EXPECT_EQ(cli.seed, 18446744073709551615ull);
}

TEST(SweepTest, SelectsQuickVariantOnlyWhenPresent) {
  const Sweep<int> with_quick{{1, 2, 3, 4}, {1, 4}};
  EXPECT_EQ(with_quick.values(false), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(with_quick.values(true), (std::vector<int>{1, 4}));
  const Sweep<int> without_quick{{5, 6}, {}};
  EXPECT_EQ(without_quick.values(true), (std::vector<int>{5, 6}));
}

TEST(FigureSeriesTest, ChecksumCoversEveryCellAndRow) {
  FigureSeries a;
  a.columns = {"x", "y"};
  a.add_row({1.0, 2.0});
  a.add_row({3.0, 4.0});
  FigureSeries b = a;
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_EQ(a.row_checksum(0), b.row_checksum(0));

  b.rows[1][1] = 4.5;
  EXPECT_NE(a.checksum(), b.checksum());
  EXPECT_EQ(a.row_checksum(0), b.row_checksum(0));  // untouched row agrees
  EXPECT_NE(a.row_checksum(1), b.row_checksum(1));  // edited row localised
}

// The figures the determinism/schema satellites exercise: one
// pure-analysis figure (fig3), one that averages trials on the thread pool
// (fig8), one sampler sweep (fig10), and the kernel throughput record
// (kernels: every sampler, sketch, service, gossip, run_trials and
// baseline kernel, so they also run in the sanitizer jobs).  --quick keeps
// each under a fraction of a second.
std::vector<figures::FigureDef> sampled_defs() {
  std::vector<figures::FigureDef> defs;
  defs.push_back(figures::make_fig3_targeted_effort());
  defs.push_back(figures::make_fig8_gain_vs_n());
  defs.push_back(figures::make_fig10_gain_vs_c());
  defs.push_back(figures::make_kernels());
  return defs;
}

TEST(FigureDeterminismTest, SameSeedSameChecksumForAnyThreadCount) {
  ThreadCountGuard guard;
  for (const auto& def : sampled_defs()) {
    FigureContext ctx;
    ctx.quick = true;
    ctx.seed = def.seed;

    set_trial_threads(1);
    FigureSeries serial;
    serial.columns = def.columns;
    const std::uint64_t items_serial = def.compute(ctx, serial);

    for (const std::size_t threads : {2u, 5u}) {
      set_trial_threads(threads);
      FigureSeries pooled;
      pooled.columns = def.columns;
      const std::uint64_t items_pooled = def.compute(ctx, pooled);
      EXPECT_EQ(items_serial, items_pooled) << def.slug;
      ASSERT_EQ(serial.rows.size(), pooled.rows.size()) << def.slug;
      EXPECT_EQ(serial.checksum(), pooled.checksum())
          << def.slug << " with " << threads << " threads";
      for (std::size_t i = 0; i < serial.rows.size(); ++i)
        EXPECT_EQ(serial.row_checksum(i), pooled.row_checksum(i))
            << def.slug << " row " << i;
    }
  }
}

TEST(FigureDeterminismTest, DifferentSeedMovesSamplerChecksums) {
  // fig10 is seed-sensitive (sampler RNG); the analytical fig3 is not —
  // its series is a pure function of the sweep.
  auto def = figures::make_fig10_gain_vs_c();
  FigureContext ctx;
  ctx.quick = true;
  ctx.seed = def.seed;
  FigureSeries one;
  def.compute(ctx, one);
  ctx.seed = def.seed + 17;
  FigureSeries two;
  def.compute(ctx, two);
  EXPECT_NE(one.checksum(), two.checksum());
}

TEST(KernelChecksumTest, QuickRowChecksumsArePinned) {
  // hi << 32 | lo of each kernels row at --quick, seed 1, in scenario
  // index order (bench/kernels.cpp lists the indices).
  const std::uint64_t pinned[] = {
      10185677242640801978ULL,  // sampler/omniscient
      13435266516359986437ULL,  // sampler/knowledge_free
      13742925560828984941ULL,  // sampler/conservative
      12887288460845653ULL,     // sketch/count_min_update
      17518717787947462080ULL,  // sketch/conservative_update
      13702447785015781381ULL,  // sketch/count_min_estimate
      11158932963329378405ULL,  // service/batch_ingest
      6837974802887346218ULL,   // service/sharded_ingest
      8031940321729951731ULL,   // gossip/round
      2871202148011197595ULL,   // attack/targeted_ingest
      7149820555440393962ULL,   // parallel/run_trials
      371833664106335584ULL,    // baseline/minwise
      225145449743129199ULL,    // baseline/reservoir
  };
  const auto def = figures::make_kernels();
  FigureContext ctx;
  ctx.quick = true;
  ctx.seed = def.seed;
  FigureSeries series;
  series.columns = def.columns;
  def.compute(ctx, series);
  ASSERT_EQ(series.rows.size(), std::size(pinned));
  for (std::size_t i = 0; i < series.rows.size(); ++i) {
    const auto& row = series.rows[i];
    EXPECT_EQ(row[0], static_cast<double>(i));
    const std::uint64_t checksum = static_cast<std::uint64_t>(row[2]) << 32 |
                                   static_cast<std::uint64_t>(row[3]);
    EXPECT_EQ(checksum, pinned[i]) << "kernels row " << i;
  }
}

TEST(FigureSidecarTest, JsonIsValidAndCarriesSchemaFields) {
  for (const auto& def : sampled_defs()) {
    FigureContext ctx;
    ctx.quick = true;
    ctx.seed = def.seed;
    FigureSeries series;
    const ScenarioReport report = run_figure(def, ctx, series);
    EXPECT_EQ(report.name, "fig/" + def.slug);
    EXPECT_EQ(report.checksum, series.checksum()) << def.slug;
    EXPECT_GT(report.items, 0u) << def.slug;
    EXPECT_EQ(series.columns, def.columns) << def.slug;
    ASSERT_FALSE(series.rows.empty()) << def.slug;
    for (const auto& row : series.rows)
      ASSERT_EQ(row.size(), def.columns.size()) << def.slug;

    const std::string json = figure_json(def, ctx, report, series);
    JsonScanner scanner(json);
    EXPECT_TRUE(scanner.valid()) << def.slug << ": " << json.substr(0, 200);
    for (const char* required :
         {"\"schema\": \"unisamp-figure-v1\"", "\"artefact\"",
          "\"scenario\"", "\"description\"", "\"quick\": true", "\"seed\"",
          "\"timing\"", "\"items\"", "\"ns_per_op\"", "\"items_per_sec\"",
          "\"checksum\"", "\"columns\"", "\"rows\""}) {
      EXPECT_NE(json.find(required), std::string::npos)
          << def.slug << " missing " << required;
    }
  }
}

TEST(FigureSidecarTest, JsonScannerRejectsMalformedDocuments) {
  for (const char* bad :
       {"{", "{\"a\": }", "[1, 2,]", "{\"a\": 1} trailing", "{'a': 1}",
        "{\"a\": 01e}"}) {
    JsonScanner scanner{std::string(bad)};
    EXPECT_FALSE(scanner.valid()) << bad;
  }
  JsonScanner ok{std::string(
      "{\"a\": [1, -2.5e3, true, false, null, \"s\\\"x\"], \"b\": {}}")};
  EXPECT_TRUE(ok.valid());
}

}  // namespace
}  // namespace unisamp::bench_harness
