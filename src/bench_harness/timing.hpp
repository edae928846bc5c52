// Wall-clock measurement primitives for the benchmark harness.
//
// Stopwatch reads std::chrono::steady_clock (monotonic; immune to NTP
// slews).  SampleStats condenses the per-repetition timings into their
// MEDIAN, the headline number: robust to the one-off scheduling hiccups
// that dominate min/mean on a loaded CI runner.  The regression checker
// (tools/check_bench_regression.py) compares medians against one fixed
// threshold.
#pragma once

#include <chrono>
#include <span>

namespace unisamp::bench_harness {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  /// Nanoseconds since construction.
  double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Summary of a set of per-repetition samples.
struct SampleStats {
  double median = 0.0;

  /// Computes the summary; an empty span yields zero.
  static SampleStats from(std::span<const double> samples);
};

}  // namespace unisamp::bench_harness
