#include "bench_harness/runner.hpp"

#include <stdexcept>
#include <vector>

namespace unisamp::bench_harness {

ScenarioReport run_scenario(const Scenario& scenario, const RunOptions& opts) {
  if (opts.repeats < 1)
    throw std::invalid_argument("repeats must be at least 1");
  const std::uint64_t budget =
      opts.quick ? scenario.quick_items : scenario.full_items;

  ScenarioReport report;
  report.name = scenario.name;
  report.description = scenario.description;

  for (int i = 0; i < opts.warmup; ++i) scenario.run(budget, opts.seed);

  std::vector<double> samples_ns_per_op;
  bool first = true;
  for (int i = 0; i < opts.repeats; ++i) {
    Stopwatch watch;
    const ScenarioResult result = scenario.run(budget, opts.seed);
    const double elapsed = watch.elapsed_ns();
    if (result.items == 0)
      throw std::runtime_error("scenario '" + scenario.name +
                               "' reported zero items");
    if (first) {
      report.items = result.items;
      report.checksum = result.checksum;
      first = false;
    } else if (result.items != report.items ||
               result.checksum != report.checksum) {
      // Same seed, different observable output: the scenario is
      // nondeterministic and its timings cannot be compared run-to-run.
      throw std::runtime_error("scenario '" + scenario.name +
                               "' is nondeterministic across repetitions");
    }
    samples_ns_per_op.push_back(elapsed / static_cast<double>(result.items));
  }

  report.ns_per_op = SampleStats::from(samples_ns_per_op);
  if (report.ns_per_op.median > 0.0)
    report.items_per_sec = 1e9 / report.ns_per_op.median;
  return report;
}

}  // namespace unisamp::bench_harness
