#include "bench_harness/timing.hpp"

#include <algorithm>
#include <vector>

namespace unisamp::bench_harness {

SampleStats SampleStats::from(std::span<const double> samples) {
  SampleStats s;
  if (samples.empty()) return s;
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  s.median = n % 2 == 1 ? sorted[n / 2]
                        : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  return s;
}

}  // namespace unisamp::bench_harness
