// Benchmark runner: the warmup/repeat timing loop.
//
// For a scenario the runner executes `warmup` untimed repetitions followed
// by `repeats` timed ones, all with the SAME seed so every repetition does
// identical work; the per-repetition checksums must agree or the runner
// aborts (see scenario.hpp).  Timings are reported as ns/op (elapsed /
// items) with the median as the headline number.  Records are written by
// the figure layer (figure.hpp) as unisamp-figure-v1 sidecars.
#pragma once

#include <cstdint>
#include <string>

#include "bench_harness/scenario.hpp"
#include "bench_harness/timing.hpp"

namespace unisamp::bench_harness {

struct RunOptions {
  int warmup = 1;
  int repeats = 5;
  bool quick = false;      ///< use quick_items instead of full_items
  std::uint64_t seed = 1;  ///< master seed handed to the scenario
};

/// Measured outcome of one scenario.
struct ScenarioReport {
  std::string name;
  std::string description;
  std::uint64_t items = 0;
  std::uint64_t checksum = 0;
  SampleStats ns_per_op;       ///< over the timed repetitions
  double items_per_sec = 0.0;  ///< from the median
};

/// Runs one scenario under the options.  Throws std::runtime_error if
/// repetitions disagree on checksum or item count.
ScenarioReport run_scenario(const Scenario& scenario, const RunOptions& opts);

}  // namespace unisamp::bench_harness
