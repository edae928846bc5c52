// Shared plumbing of the whole-run benchmark: the clock, the host-speed
// samples, the span recorder, step timing, verification accounting, and the
// result record every workload fills in.
//
// The benchmark times the library strictly from OUTSIDE: every span starts
// and ends in benchmark code, around a call into a public entry point of
// one layer.  Spans are kept in memory and written as JSON when the run
// ends, so recording never touches the file system mid-run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench_harness/scenario.hpp"
#include "bench_harness/timing.hpp"
#include "stream/types.hpp"

namespace ubench {

using unisamp::NodeId;
using unisamp::bench_harness::SampleStats;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::uint64_t fold(std::uint64_t acc, std::uint64_t v) {
  return unisamp::bench_harness::checksum_fold(acc, v);
}
inline constexpr std::uint64_t kChecksumSeed =
    unisamp::bench_harness::kChecksumSeed;

/// Host-speed samples.  On a shared host a core's speed can swing by
/// 1.4-1.7x within seconds (most likely other tenants on its sibling
/// hyperthread), which moved raw wall times by 5-30% between runs of the
/// same code on the 4-vCPU Xeon VM this benchmark was sized on.  While
/// sampling runs, a profiling timer interrupts the process every kPeriodUs
/// of its CPU time (rounded up to the kernel's tick: 4 ms on that host),
/// and the signal handler times a fixed chain of kRounds dependent integer
/// hash rounds (benchmark code, no memory traffic) on the same core.  An interval's wall time converts to REFERENCE time as
///
///   wall x kReferenceNs / (mean chain time of the samples taken inside the
///   interval, or, if it holds none, of the last one before it and the
///   first one after it).
///
/// kReferenceNs is the chain's time on the reference host in its fast
/// state, so reference times read like wall times on a quiet host.
namespace speed {

inline constexpr long kPeriodUs = 1000;
inline constexpr int kRounds = 2000;
inline constexpr double kReferenceNs = 2200.0;

/// Starts sampling for the rest of the process; false if the timer could
/// not be set up (factor() then returns 1: wall time).
bool start();
void stop();
/// Waits for the next sample, so the last interval timed has one after it.
void await_sample();
/// Samples taken so far.
std::size_t samples();
/// Reference time over wall time for the interval [start, end).
double factor(std::int64_t start, std::int64_t end);

}  // namespace speed

/// Reference time of the interval [start, end), in ns.
inline double reference_ns(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * speed::factor(start, end);
}

/// One recorded span.  Work too fine-grained to record call by call (one
/// popped event, one adversary push) is folded into one span per (step,
/// name): `dur_ns` is then the summed wall time of `calls` calls lying
/// between `start_ns` and `end_ns`.  For a single call dur = end - start.
/// `ref_ns` is dur_ns in reference time (see speed::factor), set by
/// Trace::to_reference.
struct Span {
  const char* name = "";
  const char* parent = "";  ///< "" for a root span
  std::int64_t step = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t calls = 0;
  double ref_ns = 0.0;
};

class Trace {
 public:
  void add(const char* name, const char* parent, std::int64_t step,
           std::int64_t start_ns, std::int64_t end_ns, std::int64_t dur_ns,
           std::uint64_t calls) {
    spans_.push_back({name, parent, step, start_ns, end_ns, dur_ns, calls,
                      static_cast<double>(dur_ns)});
  }
  void add(const char* name, const char* parent, std::int64_t step,
           std::int64_t start_ns, std::int64_t end_ns) {
    add(name, parent, step, start_ns, end_ns, end_ns - start_ns, 1);
  }

  /// Converts every span to reference time with the factor of its step
  /// (taken over the extent of all spans of that step).
  void to_reference();

  /// Summed reference time / call count of every span with this name.
  double total_ns(std::string_view name) const;
  std::uint64_t calls(std::string_view name) const;
  /// Self time: total_ns(name) minus the spans whose parent is `name`.
  double self_ns(std::string_view name) const;

  /// Writes {"spans": [...]} to `path`; false on an IO error.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Times steps in wall and reference time: start() and stop() bracket one
/// step.
class StepTimer {
 public:
  void start() { t0_ = now_ns(); }
  void stop() { record(t0_, now_ns()); }
  /// Records a step whose bounds were read by the caller.
  void record(std::int64_t start, std::int64_t end) {
    starts_.push_back(start);
    ends_.push_back(end);
    wall_.push_back(static_cast<double>(end - start));
  }

  /// Computes the reference times; call once after the last step.
  void finish();

  double ref_total_s() const;
  double wall_total_s() const;
  /// Nearest-rank percentile in microseconds, q in (0, 1].
  double ref_percentile_us(double q) const;
  double wall_percentile_us(double q) const;
  /// ref_percentile_us with host-speed phases divided out: each step's
  /// reference time is scaled by the run's median step time over the
  /// median of the kPhaseWindow steps around it.  The probe misjudges some
  /// contention phases of a few seconds by 10-20%; such a phase covers
  /// more than 5% of a run's steps and would otherwise set its p95, while
  /// a step slower than its neighbours keeps its ratio.
  double ref_phase_free_percentile_us(double q) const;
  static constexpr std::size_t kPhaseWindow = 5;
  double ref_median_s() const;
  double wall_median_s() const;

 private:
  std::int64_t t0_ = 0;
  std::vector<std::int64_t> starts_, ends_;
  std::vector<double> wall_, ref_;  ///< step times, ns
};

/// Verification accounting: every cheap per-step check and every final
/// equality is one attempted check.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 16) failures_.push_back(what);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Run length the workloads' nominal step counts are sized for: about
/// this many seconds of measured steps on the reference host (4-core
/// Xeon, gcc 12, Release).
inline constexpr double kNominalSeconds = 20.0;

/// Per-workload run options.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = kNominalSeconds;
  bool traced = false;
  bool self_test = false;  ///< short shapes, no timing claims
};

/// What one workload process reports.
struct Result {
  std::size_t steps = 0;
  std::size_t warmup = 0;
  std::uint64_t checksum = 0;
  Checks checks;
  std::map<std::string, double> metrics;
  Trace trace;
};

/// Timed steps of a run: `nominal` scaled by seconds / kNominalSeconds,
/// never below 200 (so p95 has at least 10 samples beyond it); a traced
/// run takes a quarter of them, a self-test `self_test_steps`.  Step
/// counts depend on the arguments alone, so two commits run with the same
/// arguments do the same work.
std::size_t step_count(const RunOptions& opts, std::size_t nominal,
                       std::size_t self_test_steps);

/// ru_maxrss of this process in MiB.
double peak_rss_mib();

/// The end-to-end metrics of an untraced run: `ids` processed over the
/// timed steps, the set-up repetitions, and the output quality.  Wall-clock
/// twins of the timings are reported as wall_* (result metadata only).
void set_end_to_end(Result& result, const StepTimer& steps, double ids,
                    const StepTimer& setup, double pollution,
                    double drop_frac);

// --- the four workloads (one translation unit each) ------------------------

Result run_service_ingest(const RunOptions& opts);
Result run_gossip_rounds(const RunOptions& opts);
Result run_gossip_event(const RunOptions& opts);
Result run_scenario_trials(const RunOptions& opts);

}  // namespace ubench
