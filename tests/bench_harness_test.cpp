// Unit tests for the benchmark-harness subsystem: JSON writer syntax and
// escaping, sample statistics, and the runner's determinism contract
// (checksum agreement across repetitions).
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "bench_harness/json_writer.hpp"
#include "bench_harness/runner.hpp"
#include "bench_harness/scenario.hpp"
#include "bench_harness/timing.hpp"

namespace unisamp::bench_harness {
namespace {

TEST(JsonWriterTest, NestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.member("name", "x");
  w.member("count", std::uint64_t{3});
  w.key("values");
  w.begin_array();
  w.value(1.5);
  w.value(true);
  w.value_null();
  w.end_array();
  w.key("empty");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"count\": 3,\n"
            "  \"values\": [\n"
            "    1.5,\n"
            "    true,\n"
            "    null\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, FormatsDoubles) {
  EXPECT_EQ(JsonWriter::format_double(1.5), "1.5");
  EXPECT_EQ(JsonWriter::format_double(0.0), "0");
  // JSON has no NaN/Inf; they degrade to null rather than corrupt the doc.
  EXPECT_EQ(JsonWriter::format_double(std::nan("")), "null");
}

TEST(JsonWriterTest, MisuseThrows) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // incomplete document
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
}

TEST(SampleStatsTest, ComputesSummary) {
  const double samples[] = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(SampleStats::from(samples).median, 2.5);

  const double odd[] = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(SampleStats::from(odd).median, 3.0);
  EXPECT_DOUBLE_EQ(SampleStats::from({}).median, 0.0);
}

Scenario counting_scenario(const std::string& name) {
  Scenario s;
  s.name = name;
  s.description = "adds items derived from the seed";
  s.full_items = 1000;
  s.quick_items = 10;
  s.run = [](std::uint64_t items, std::uint64_t seed) {
    std::uint64_t acc = seed;
    for (std::uint64_t i = 0; i < items; ++i) acc = acc * 6364136223846793005ULL + 1;
    return ScenarioResult{items, acc};
  };
  return s;
}

TEST(RunnerTest, ReportsDeterministicScenario) {
  RunOptions opts;
  opts.warmup = 1;
  opts.repeats = 3;
  opts.seed = 42;
  const ScenarioReport report =
      run_scenario(counting_scenario("a/count"), opts);
  EXPECT_EQ(report.name, "a/count");
  EXPECT_EQ(report.items, 1000u);
  EXPECT_GT(report.ns_per_op.median, 0.0);
  EXPECT_GT(report.items_per_sec, 0.0);

  opts.quick = true;
  EXPECT_EQ(run_scenario(counting_scenario("a/count"), opts).items, 10u);
}

TEST(RunnerTest, RejectsNondeterministicScenario) {
  Scenario s = counting_scenario("a/drift");
  auto ticks = std::make_shared<std::uint64_t>(0);
  s.run = [ticks](std::uint64_t items, std::uint64_t) {
    return ScenarioResult{items, ++*ticks};  // checksum drifts per call
  };
  RunOptions opts;
  opts.repeats = 2;
  EXPECT_THROW(run_scenario(s, opts), std::runtime_error);
}

}  // namespace
}  // namespace unisamp::bench_harness
