// unisamp_benchmark — one workload of the whole-run benchmark per process.
//
//   unisamp_benchmark --workload=NAME --seed=N [--seconds=S] [--trace=PATH]
//   unisamp_benchmark --self-test [--workload=NAME]
//
// Prints one JSON object on stdout: the step count, the verification
// counts, a checksum of the run's observable output, the metrics, and host
// facts.  Without --trace the metrics are the end-to-end ones; with
// --trace the process makes the traced run (a quarter of the steps, after
// the same warm-up), writes its spans to PATH and reports per-layer
// metrics.  --self-test runs short shapes of every workload (or the named
// one) traced, and fails unless every traced/untraced and replay/source
// equality holds.  benchmark/run.py is the intended front end.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench_harness/json_writer.hpp"
#include "common.hpp"

namespace {

using unisamp::bench_harness::JsonWriter;
using ubench::Result;
using ubench::RunOptions;

struct Workload {
  const char* name;
  Result (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"service_ingest", ubench::run_service_ingest},
    {"gossip_rounds", ubench::run_gossip_rounds},
    {"gossip_event", ubench::run_gossip_event},
    {"scenario_trials", ubench::run_scenario_trials},
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "" : model.substr(first);
  }
#endif
  return "";
}

long sysconf_or_zero(int name) {
  const long v = sysconf(name);
  return v < 0 ? 0 : v;
}

void write_host(JsonWriter& json) {
  long l2 = 0, l3 = 0;
#ifdef _SC_LEVEL2_CACHE_SIZE
  l2 = sysconf_or_zero(_SC_LEVEL2_CACHE_SIZE);
#endif
#ifdef _SC_LEVEL3_CACHE_SIZE
  l3 = sysconf_or_zero(_SC_LEVEL3_CACHE_SIZE);
#endif
  json.begin_object();
  json.member("nproc", static_cast<std::int64_t>(
                           sysconf_or_zero(_SC_NPROCESSORS_ONLN)));
  json.member("cpu_model", std::string_view(cpu_model()));
  json.member("l2_bytes", static_cast<std::int64_t>(l2));
  json.member("l3_bytes", static_cast<std::int64_t>(l3));
  json.member("compiler", UNISAMP_BENCHMARK_COMPILER);
  json.member("build_type", UNISAMP_BENCHMARK_BUILD_TYPE);
  json.end_object();
}

/// Prints the run's record.  Each metric is a string holding all 17
/// significant digits, since JsonWriter writes doubles with six.
void print_result(const char* workload, const RunOptions& opts,
                  const Result& r) {
  JsonWriter json;
  json.begin_object();
  json.member("workload", workload);
  json.member("seed", opts.seed);
  json.member("traced", opts.traced);
  json.member("steps", static_cast<std::uint64_t>(r.steps));
  json.member("warmup", static_cast<std::uint64_t>(r.warmup));
  json.member("checksum", r.checksum);
  json.member("checks_attempted", r.checks.attempted());
  json.member("checks_failed", r.checks.failed());
  json.member("speed_samples",
              static_cast<std::uint64_t>(ubench::speed::samples()));
  json.key("failures");
  json.begin_array();
  for (const std::string& f : r.checks.failures()) json.value(f);
  json.end_array();
  json.key("metrics");
  json.begin_object();
  char digits[32];
  for (const auto& [name, value] : r.metrics) {
    std::snprintf(digits, sizeof digits, "%.17g", value);
    json.member(name, std::string_view(digits));
  }
  json.end_object();
  json.key("host");
  write_host(json);
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || *s == '-') return false;
  out = v;
  return true;
}

bool parse_seconds(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v <= 600.0)) return false;
  out = v;
  return true;
}

int usage(std::FILE* out, int code) {
  std::fprintf(out,
               "usage: unisamp_benchmark --workload=NAME --seed=N "
               "[--seconds=S] [--trace=PATH]\n"
               "       unisamp_benchmark --self-test [--workload=NAME]\n"
               "workloads: service_ingest gossip_rounds gossip_event "
               "scenario_trials\n");
  return code;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int self_test(const Workload* only) {
  std::uint64_t failed = 0;
  for (const Workload& w : kWorkloads) {
    if (only != nullptr && only != &w) continue;
    RunOptions opts;
    opts.traced = true;
    opts.self_test = true;
    const Result r = w.run(opts);
    std::printf("self-test %-16s %llu checks, %llu failed\n", w.name,
                static_cast<unsigned long long>(r.checks.attempted()),
                static_cast<unsigned long long>(r.checks.failed()));
    for (const std::string& f : r.checks.failures())
      std::printf("  FAILED: %s\n", f.c_str());
    failed += r.checks.failed();
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  const Workload* workload = nullptr;
  std::string trace_path;
  bool run_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const char* value = eq == std::string_view::npos ? "" : argv[i] + eq + 1;
    if (name == "--help" || name == "-h") return usage(stdout, 0);
    if (name == "--self-test") {
      run_self_test = true;
    } else if (name == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", value);
        return usage(stderr, 2);
      }
    } else if (name == "--seed") {
      if (!parse_u64(value, opts.seed)) {
        std::fprintf(stderr, "malformed --seed: %s\n", value);
        return 2;
      }
    } else if (name == "--seconds") {
      if (!parse_seconds(value, opts.seconds)) {
        std::fprintf(stderr, "malformed --seconds (0 < S <= 600): %s\n",
                     value);
        return 2;
      }
    } else if (name == "--trace") {
      trace_path = value;
      if (trace_path.empty()) {
        std::fprintf(stderr, "--trace needs a path\n");
        return 2;
      }
      opts.traced = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return usage(stderr, 2);
    }
  }
  if (!run_self_test && workload == nullptr) return usage(stderr, 2);

  if (!ubench::speed::start())
    std::fprintf(stderr, "no host-speed samples: timings are wall time\n");
  if (run_self_test) return self_test(workload);
  const Result result = workload->run(opts);
  ubench::speed::stop();
  if (opts.traced && !result.trace.write_json(trace_path)) {
    std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
    return 1;
  }
  print_result(workload->name, opts, result);
  return result.checks.failed() == 0 ? 0 : 1;
}
