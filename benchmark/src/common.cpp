#include "common.hpp"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <unordered_map>

#include "bench_harness/json_writer.hpp"

namespace ubench {

namespace speed {
namespace {

constexpr std::size_t kCapacity = std::size_t{1} << 18;  // >= 262 s of CPU
std::int64_t g_start[kCapacity];
std::int64_t g_end[kCapacity];
std::atomic<std::size_t> g_count{0};
bool g_running = false;

void on_timer(int) {
  const int saved_errno = errno;
  const std::int64_t t0 = now_ns();
  // A dependent chain of SplitMix64 finalizer rounds: pure integer
  // latency, no loads or stores, so it measures the core and nothing else.
  std::uint64_t x = static_cast<std::uint64_t>(t0) | 1, s = 0;
  for (int i = 0; i < kRounds; ++i) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    s = (s ^ z ^ (z >> 31)) * 3;
  }
  static volatile std::uint64_t sink;
  sink = sink + s;
  const std::size_t n = g_count.load(std::memory_order_relaxed);
  if (n < kCapacity) {
    g_start[n] = t0;
    g_end[n] = now_ns();
    g_count.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

}  // namespace

bool start() {
  if (g_running) return true;
  struct sigaction action {};
  action.sa_handler = on_timer;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  itimerval every{};
  every.it_interval.tv_usec = kPeriodUs;
  every.it_value.tv_usec = kPeriodUs;
  g_running = sigaction(SIGPROF, &action, nullptr) == 0 &&
              setitimer(ITIMER_PROF, &every, nullptr) == 0;
  return g_running;
}

void stop() {
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_running = false;
}

void await_sample() {
  const std::size_t n = g_count.load(std::memory_order_acquire);
  if (!g_running || n == kCapacity) return;
  while (g_count.load(std::memory_order_acquire) == n) {
  }
}

std::size_t samples() { return g_count.load(std::memory_order_acquire); }

double factor(std::int64_t start, std::int64_t end) {
  const std::int64_t* first = g_start;
  const std::int64_t* last = g_start + samples();
  const std::int64_t* lo = std::lower_bound(first, last, start);
  const std::int64_t* hi = std::lower_bound(lo, last, end);
  double sum = 0.0;
  std::size_t k = 0;
  const auto add = [&](const std::int64_t* p) {
    sum += static_cast<double>(g_end[p - first] - *p);
    ++k;
  };
  if (lo != hi) {
    for (const std::int64_t* p = lo; p != hi; ++p) add(p);
  } else {
    if (lo != first) add(lo - 1);
    if (lo != last) add(lo);
  }
  return k == 0 ? 1.0 : kReferenceNs * static_cast<double>(k) / sum;
}

}  // namespace speed

void Trace::to_reference() {
  std::unordered_map<std::int64_t, std::pair<std::int64_t, std::int64_t>>
      extent;
  for (const Span& s : spans_) {
    auto [it, fresh] = extent.try_emplace(s.step, s.start_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::unordered_map<std::int64_t, double> factor;
  for (const auto& [step, span] : extent)
    factor[step] = speed::factor(span.first, span.second);
  for (Span& s : spans_)
    s.ref_ns = static_cast<double>(s.dur_ns) * factor[s.step];
}

double Trace::total_ns(std::string_view name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.ref_ns;
  return sum;
}

std::uint64_t Trace::calls(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const Span& s : spans_)
    if (name == s.name) sum += s.calls;
  return sum;
}

double Trace::self_ns(std::string_view name) const {
  double self = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) self += s.ref_ns;
    if (name == s.parent) self -= s.ref_ns;
  }
  return self;
}

bool Trace::write_json(const std::string& path) const {
  unisamp::bench_harness::JsonWriter json;
  json.begin_object();
  json.key("spans");
  json.begin_array();
  for (const Span& s : spans_) {
    json.begin_object();
    json.member("name", s.name);
    json.member("parent", s.parent);
    json.member("step", s.step);
    json.member("start_ns", s.start_ns);
    json.member("end_ns", s.end_ns);
    json.member("dur_ns", s.dur_ns);
    json.member("ref_ns", static_cast<std::int64_t>(std::llround(s.ref_ns)));
    json.member("calls", s.calls);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string& text = json.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

namespace {

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

}  // namespace

void StepTimer::finish() {
  speed::await_sample();
  ref_.resize(wall_.size());
  for (std::size_t i = 0; i < wall_.size(); ++i)
    ref_[i] = wall_[i] * speed::factor(starts_[i], ends_[i]);
}

double StepTimer::ref_total_s() const { return sum_of(ref_) / 1e9; }

double StepTimer::wall_total_s() const { return sum_of(wall_) / 1e9; }

double StepTimer::ref_percentile_us(double q) const {
  return nearest_rank(ref_, q) / 1e3;
}

double StepTimer::wall_percentile_us(double q) const {
  return nearest_rank(wall_, q) / 1e3;
}

double StepTimer::ref_phase_free_percentile_us(double q) const {
  const std::size_t n = ref_.size();
  if (n < kPhaseWindow) return ref_percentile_us(q);
  const double median = nearest_rank(ref_, 0.5);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo =
        std::min(i - std::min(i, kPhaseWindow / 2), n - kPhaseWindow);
    double window[kPhaseWindow];
    std::copy_n(ref_.begin() + static_cast<std::ptrdiff_t>(lo), kPhaseWindow,
                window);
    std::nth_element(window, window + kPhaseWindow / 2, window + kPhaseWindow);
    scaled[i] = ref_[i] * median / window[kPhaseWindow / 2];
  }
  return nearest_rank(std::move(scaled), q) / 1e3;
}

double StepTimer::ref_median_s() const {
  return SampleStats::from(ref_).median / 1e9;
}

double StepTimer::wall_median_s() const {
  return SampleStats::from(wall_).median / 1e9;
}

std::size_t step_count(const RunOptions& opts, std::size_t nominal,
                       std::size_t self_test_steps) {
  if (opts.self_test) return self_test_steps;
  const double scaled =
      std::round(static_cast<double>(nominal) * opts.seconds / kNominalSeconds);
  const std::size_t steps =
      std::max<std::size_t>(200, static_cast<std::size_t>(scaled));
  return opts.traced ? steps / 4 : steps;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void set_end_to_end(Result& result, const StepTimer& steps, double ids,
                    const StepTimer& setup, double pollution,
                    double drop_frac) {
  auto& m = result.metrics;
  m["setup_s"] = setup.ref_median_s();
  m["ids_per_s"] = ids / steps.ref_total_s();
  m["step_p50_us"] = steps.ref_percentile_us(0.50);
  m["step_p95_us"] = steps.ref_phase_free_percentile_us(0.95);
  m["peak_rss_mb"] = peak_rss_mib();
  m["output_pollution"] = pollution;
  m["drop_frac"] = drop_frac;
  m["wall.setup_s"] = setup.wall_median_s();
  m["wall.ids_per_s"] = ids / steps.wall_total_s();
  m["wall.step_p50_us"] = steps.wall_percentile_us(0.50);
  m["wall.step_p95_us"] = steps.wall_percentile_us(0.95);
}

}  // namespace ubench
