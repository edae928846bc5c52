// Wall-clock measurement primitives for the benchmark harness.
//
// Stopwatch reads std::chrono::steady_clock (monotonic; immune to NTP
// slews).  SampleStats condenses the per-repetition timings into the
// summary the JSON report carries: the MEDIAN is the headline number
// (robust to the one-off scheduling hiccups that dominate min/mean on a
// loaded CI runner), min is reported as the "best case the hardware
// allows", and stddev records run-to-run noise for the reader.  The
// regression checker (tools/check_bench_regression.py) compares medians
// against one fixed threshold and does not read stddev.
#pragma once

#include <chrono>
#include <span>

namespace unisamp::bench_harness {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void reset() { start_ = std::chrono::steady_clock::now(); }

  /// Nanoseconds since construction/reset.
  double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Summary statistics over a set of per-repetition samples.
struct SampleStats {
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< population standard deviation

  /// Computes the summary; an empty span yields all zeros.
  static SampleStats from(std::span<const double> samples);
};

}  // namespace unisamp::bench_harness
