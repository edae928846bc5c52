// Figure-runner layer of the benchmark harness.
//
// Every bench/ binary — the paper's figures and tables, the scenario
// artefacts and the `kernels` throughput record — is one FigureDef: a
// compute function that fills a FigureSeries (the artefact's data, the part
// that is checksummed) plus an optional render function that pretty-prints
// the series to stdout.  run_figure_main() supplies everything else — the
// shared CLI (--quick / --seed= / --out-dir=), the banner, the timed run
// through the scenario runner (runner.hpp), and the two output files:
//
//   bench_results/<slug>.csv   — the data series (columns + numeric rows)
//   bench_results/<slug>.json  — the "unisamp-figure-v1" sidecar: series +
//                                timing + determinism checksum
//
// Output discipline: stdout and the CSV are pure functions of (code, seed,
// quick flag) — bit-identical across runs, machines, and thread counts.
// Wall clock appears only on stderr and in the sidecar's "timing" object,
// so figure reproduction doubles as a perf record without making the data
// artefact nondeterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_harness/runner.hpp"
#include "bench_harness/scenario.hpp"
#include "metrics/divergence.hpp"
#include "util/parallel.hpp"

namespace unisamp::bench_harness {

/// A figure's data series: column names plus numeric rows (what the CSV
/// holds, kept in memory so it can also go into the JSON sidecar).
struct FigureSeries {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  void add_row(std::vector<double> row) { rows.push_back(std::move(row)); }

  /// Checksum of one row (fold over its cells' bit patterns) — the
  /// per-sweep-point fingerprint, so a single divergent point can be
  /// localised without diffing the whole series.
  std::uint64_t row_checksum(std::size_t index) const;

  /// Folds every cell's bit pattern — the scenario checksum, so a figure
  /// rerun with the same seed is verifiably bit-identical.
  std::uint64_t checksum() const;
};

/// A parameter sweep with a full-budget and a --quick variant.  Figures
/// describe their x-axis once; the context picks the variant.
template <typename T>
struct Sweep {
  std::vector<T> full;
  std::vector<T> quick;  ///< empty = --quick sweeps the full values too

  const std::vector<T>& values(bool use_quick) const {
    return (use_quick && !quick.empty()) ? quick : full;
  }
};

/// What one figure run knows about how it was invoked.
struct FigureContext {
  bool quick = false;      ///< --quick: reduced sweeps/trials (CI smoke)
  std::uint64_t seed = 1;  ///< master seed (figure default or --seed=)

  /// Trial-count helper: the paper averages many trials; --quick fewer.
  int trials(int full_trials, int quick_trials) const {
    return quick ? quick_trials : full_trials;
  }

  /// Scalar budget helper (e.g. stream length m under --quick).
  template <typename T>
  T pick(T full_value, T quick_value) const {
    return quick ? quick_value : full_value;
  }
};

/// One paper artefact (figure or table) as a harness-runnable experiment.
struct FigureDef {
  std::string slug;      ///< file stem under the output dir
  std::string artefact;  ///< "Figure 4", "Table I", ...
  std::string title;     ///< what the artefact shows (banner + JSON)
  std::string settings;  ///< banner settings line (may be empty)
  std::uint64_t seed = 1;            ///< default master seed
  std::vector<std::string> columns;  ///< series header
  /// Fills `series.rows` (columns are pre-set from `columns`) and returns
  /// the number of items processed (for ns/op).  Must be a pure function of
  /// the context — no printing, no ambient randomness — because the runner
  /// may call it repeatedly and checksums must agree.
  std::function<std::uint64_t(const FigureContext&, FigureSeries&)> compute;
  /// Optional: prints the human-readable report (tables, check lines) to
  /// stdout after compute.  May use state captured at definition time that
  /// compute filled in (compute always runs first, in-process).
  std::function<void(const FigureContext&, const FigureSeries&)> render;
};

/// Parsed shared figure CLI.  An unknown flag sets `error` (usage problem);
/// `--help` sets help and the caller prints usage and exits 0.
struct FigureCli {
  bool quick = false;
  bool help = false;
  std::uint64_t seed = 0;  ///< 0 = use the figure's default
  std::string out_dir = "bench_results";
  std::string error;  ///< non-empty = parse failure (exit 2)
};

/// Parses --quick, --seed=N, --out-dir=PATH, --help.
FigureCli parse_figure_cli(int argc, const char* const* argv);

/// Runs def.compute as a one-repetition scenario through run_scenario()
/// (checksum = series.checksum(), items = compute's return) and fills
/// `series` with the computed data.
ScenarioReport run_figure(const FigureDef& def, const FigureContext& ctx,
                          FigureSeries& series);

/// Serializes the "unisamp-figure-v1" sidecar document (see
/// docs/benchmarking.md for the field-by-field schema).
std::string figure_json(const FigureDef& def, const FigureContext& ctx,
                        const ScenarioReport& report,
                        const FigureSeries& series);

/// Writes the CSV / JSON artefacts; false on I/O failure.
bool write_figure_csv(const std::string& path, const FigureSeries& series);
bool write_figure_json(const std::string& path, const FigureDef& def,
                       const FigureContext& ctx, const ScenarioReport& report,
                       const FigureSeries& series);

/// The whole figure-binary main(): CLI, banner, timed compute, render,
/// CSV + JSON sidecar, stderr timing line.  Returns the process exit code
/// (0 ok, 1 runtime/I-O failure, 2 usage error).
int run_figure_main(const FigureDef& def, int argc, const char* const* argv);

/// Trial-averaged output distribution (the paper "conducted and averaged
/// 100 trials of the same experiment", Sec. VI-A).  A single run's output
/// histogram is over-dispersed by Gamma-residency clumping — each id that
/// enters the memory is emitted ~1/flow times in a burst — so the paper's
/// KL numbers are only reproducible by averaging independent runs.
///
/// Trials run on the util/parallel thread pool.  `run_one` must derive all
/// randomness from the trial index it receives (callers seed via
/// `derive_seed(seed, offset + t)`) and is called concurrently for distinct
/// indices.  Accumulation happens afterwards in trial order, so the result
/// is bit-identical to a serial run for any thread count.
template <typename RunFn>
std::vector<double> averaged_distribution(std::uint64_t n, int trials,
                                          RunFn&& run_one) {
  std::vector<double> avg(n, 0.0);
  if (trials <= 0) return avg;  // the size_t cast below must not wrap
  // Chunking bounds peak memory at O(chunk * n) instead of O(trials * n)
  // while keeping every worker busy; accumulation stays in strict trial
  // order (t = 0, 1, 2, ...) across chunk boundaries, so the result is the
  // same as the serial loop regardless of thread count or chunk size.
  const std::size_t total = static_cast<std::size_t>(trials);
  const std::size_t chunk = std::max<std::size_t>(4 * trial_threads(), 1);
  for (std::size_t base = 0; base < total; base += chunk) {
    const std::size_t count = std::min(chunk, total - base);
    const auto per_trial = run_trials(count, [&](std::size_t offset) {
      return empirical_distribution(
          run_one(static_cast<std::uint64_t>(base + offset)), n);
    });
    for (const auto& d : per_trial)
      for (std::uint64_t i = 0; i < n; ++i) avg[i] += d[i];
  }
  for (double& x : avg) x /= static_cast<double>(trials);
  return avg;
}

}  // namespace unisamp::bench_harness
