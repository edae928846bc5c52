// unisamp command-line tool — exercise the library from the shell.
//
//   unisamp_cli gen-trace <nasa|clarknet|saskatchewan> <scale> <out> [seed]
//   unisamp_cli gen-attack <peak|band> <n> <m> <out> [seed]
//   unisamp_cli run <in> <out> --strategy=kf|omniscient [--c=N] [--k=N] [--s=N] [--seed=N]
//   unisamp_cli kl <trace> [n]
//   unisamp_cli effort <k> <s> <eta>
//   unisamp_cli detect <trace> [--window=N]
//   unisamp_cli stats <trace>
//
// Traces are one-id-per-line text files ('#' comments allowed).
// Exit status: 0 = success, 1 = runtime failure (e.g. an unreadable or
// malformed trace, or an omniscient run on an id above 2^24 - 1), 2 = usage
// error (unknown command or option value, malformed number, gen-trace
// scale 0, gen-attack without 1 <= n <= m <= 2^24, run's --c outside
// [1, 2^20], --s outside [1, 64] or --k * --s above 2^24 counters, kl's n
// above 2^24, effort's k outside [1, 4096], s outside [1, 64] or eta outside
// (0, 1), detect's --window=0).
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/attacks.hpp"
#include "analysis/urn.hpp"
#include "core/attack_detector.hpp"
#include "core/sampling_service.hpp"
#include "metrics/divergence.hpp"
#include "sketch/layout.hpp"
#include "stream/generators.hpp"
#include "stream/histogram.hpp"
#include "stream/trace_io.hpp"
#include "stream/webtrace.hpp"
#include "util/parse.hpp"

namespace {
using namespace unisamp;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  unisamp_cli gen-trace <nasa|clarknet|saskatchewan> <scale> <out> [seed]\n"
      "  unisamp_cli gen-attack <peak|band> <n> <m> <out> [seed]\n"
      "  unisamp_cli run <in> <out> [--strategy=kf|omniscient] [--c=N] [--k=N] [--s=N] [--seed=N]\n"
      "  unisamp_cli kl <trace> [n]\n"
      "  unisamp_cli effort <k> <s> <eta>\n"
      "  unisamp_cli detect <trace> [--window=N]\n"
      "  unisamp_cli stats <trace>\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// Largest trace id `run --strategy=omniscient` accepts.  Its known
/// probabilities are a dense vector over [0, max id], 8 B per id: 128 MiB at
/// this cap, where one id of 2^64 - 1 would wrap the size to 0.
constexpr NodeId kMaxOmniscientId = (NodeId{1} << 24) - 1;

/// Largest Γ `run --c` accepts, and the largest sketch `--k * --s` may ask
/// for: 2^24 counters of 8 B, the same 128 MiB ceiling as kMaxOmniscientId.
constexpr std::uint64_t kMaxMemorySize = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxSketchCounters = std::uint64_t{1} << 24;

/// Largest domain `kl` accepts: its uniform reference is a dense vector of
/// n doubles, the same 128 MiB ceiling as kMaxOmniscientId.
constexpr std::uint64_t kMaxKlDomain = kMaxOmniscientId + 1;

/// Longest stream `gen-attack` writes: m ids held in memory at 8 B each, the
/// same 128 MiB ceiling as kMaxOmniscientId.  Checked before anything is
/// allocated, so argv never sizes an allocation.
constexpr std::uint64_t kMaxAttackLength = std::uint64_t{1} << 24;

/// Largest sketch width `effort` accepts: the flooding solve is quadratic
/// in k, so doubling k quadruples its run time.
constexpr std::uint64_t kMaxEffortWidth = 4096;

/// A bad command line: main prints the message and the usage, exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict unsigned integer argument (util/parse.hpp); UsageError otherwise.
std::uint64_t arg_u64(const char* s) {
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v) throw UsageError(std::string("malformed number: '") + s + "'");
  return *v;
}

/// Strict eta in (0, 1) (util/parse.hpp); UsageError otherwise.
double arg_eta(const char* s) {
  const std::optional<double> v = parse_f64(s);
  if (!v) throw UsageError(std::string("malformed number: '") + s + "'");
  if (!(*v > 0.0 && *v < 1.0))
    throw UsageError(std::string("eta must be in (0, 1): '") + s + "'");
  return *v;
}

bool flag_value(int argc, char** argv, const char* name, std::string& out) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      out = argv[i] + prefix.size();
      return true;
    }
  }
  return false;
}

int cmd_gen_trace(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string which = argv[0];
  const std::uint64_t scale = arg_u64(argv[1]);
  const std::string out = argv[2];
  const std::uint64_t seed = argc > 3 ? arg_u64(argv[3]) : 1;
  if (scale == 0) throw UsageError("gen-trace scale must be positive");
  const WebTraceSpec* spec = nullptr;
  if (which == "nasa") spec = &nasa_trace_spec();
  else if (which == "clarknet") spec = &clarknet_trace_spec();
  else if (which == "saskatchewan") spec = &saskatchewan_trace_spec();
  else return usage();
  const WebTraceSpec scaled = scale > 1 ? scaled_spec(*spec, scale) : *spec;
  const Stream trace = generate_webtrace(scaled, seed);
  save_stream_text(trace, out);
  std::printf("wrote %zu ids (%llu distinct, max freq %llu) to %s\n",
              trace.size(),
              static_cast<unsigned long long>(scaled.distinct_ids),
              static_cast<unsigned long long>(scaled.max_frequency),
              out.c_str());
  return 0;
}

int cmd_gen_attack(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string kind = argv[0];
  const std::size_t n = arg_u64(argv[1]);
  const std::uint64_t m = arg_u64(argv[2]);
  const std::string out = argv[3];
  const std::uint64_t seed = argc > 4 ? arg_u64(argv[4]) : 1;
  if (n == 0 || m < n || m > kMaxAttackLength)
    throw UsageError("gen-attack needs 1 <= n <= m <= 2^24");
  Stream stream;
  if (kind == "peak") {
    const std::uint64_t base = m / (2 * n) ? m / (2 * n) : 1;
    const auto counts =
        peak_attack_counts(n, 0, m - base * (n - 1), base);
    stream = exact_stream(counts, seed);
  } else if (kind == "band") {
    stream = make_poisson_band_attack(n, m, seed).stream;
  } else {
    return usage();
  }
  save_stream_text(stream, out);
  std::printf("wrote %zu-id %s attack stream over %zu ids to %s\n",
              stream.size(), kind.c_str(), n, out.c_str());
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string out_path = argv[1];
  std::string v;
  ServiceConfig cfg;
  cfg.strategy = Strategy::kKnowledgeFree;
  if (flag_value(argc, argv, "strategy", v)) {
    if (v == "omniscient") cfg.strategy = Strategy::kOmniscient;
    else if (v != "kf") throw UsageError("unknown --strategy: " + v);
  }
  cfg.memory_size = flag_value(argc, argv, "c", v) ? arg_u64(v.c_str()) : 10;
  cfg.sketch_width = flag_value(argc, argv, "k", v) ? arg_u64(v.c_str()) : 10;
  cfg.sketch_depth = flag_value(argc, argv, "s", v) ? arg_u64(v.c_str()) : 5;
  cfg.seed = flag_value(argc, argv, "seed", v) ? arg_u64(v.c_str()) : 1;
  if (cfg.memory_size == 0 || cfg.memory_size > kMaxMemorySize)
    throw UsageError("--c must be in [1, 2^20]");
  if (cfg.sketch_depth == 0 || cfg.sketch_depth > sketch_detail::kMaxDepth)
    throw UsageError("--s must be in [1, 64]");
  if (cfg.sketch_width == 0 ||
      cfg.sketch_width > kMaxSketchCounters / cfg.sketch_depth)
    throw UsageError("--k must be positive with --k * --s <= 2^24");
  const Stream input = load_stream_text(argv[0]);

  if (cfg.strategy == Strategy::kOmniscient) {
    NodeId max_id = 0;
    for (NodeId id : input) {
      if (id > kMaxOmniscientId)
        throw std::runtime_error(
            "omniscient strategy: trace id " + std::to_string(id) +
            " exceeds the largest supported id " +
            std::to_string(kMaxOmniscientId));
      max_id = std::max(max_id, id);
    }
    FrequencyHistogram h;
    h.add_stream(input);
    std::vector<double> p(max_id + 1, 0.0);
    double minp = 1e300;
    for (const auto& [id, c] : h.raw())
      minp = std::min(minp, static_cast<double>(c));
    for (NodeId id = 0; id <= max_id; ++id) {
      const auto c = h.count(id);
      p[id] = (c > 0 ? static_cast<double>(c) : minp);
    }
    double total = 0.0;
    for (double x : p) total += x;
    for (double& x : p) x /= total;
    cfg.known_probabilities = std::move(p);
  }

  SamplingService service(cfg);
  service.on_receive_stream(input);
  save_stream_text(service.output_stream(), out_path);

  FrequencyHistogram in_h, out_h;
  in_h.add_stream(input);
  out_h.add_stream(service.output_stream());
  std::printf("processed %zu ids with %s (c=%zu, k=%zu, s=%zu)\n",
              input.size(), to_string(cfg.strategy).data(), cfg.memory_size,
              cfg.sketch_width, cfg.sketch_depth);
  std::printf("max frequency: input %llu -> output %llu\n",
              static_cast<unsigned long long>(in_h.max_frequency()),
              static_cast<unsigned long long>(out_h.max_frequency()));
  return 0;
}

int cmd_kl(int argc, char** argv) {
  if (argc < 1) return usage();
  std::uint64_t n = argc > 1 ? arg_u64(argv[1]) : 0;
  if (n > kMaxKlDomain) throw UsageError("kl's n must be at most 2^24");
  const Stream trace = load_stream_text(argv[0]);
  if (n == 0) {
    FrequencyHistogram h;
    h.add_stream(trace);
    n = h.distinct();
  }
  std::printf("KL(trace || uniform over %llu ids) = %.6f nats\n",
              static_cast<unsigned long long>(n),
              stream_kl_from_uniform(trace, n));
  return 0;
}

int cmd_effort(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::uint64_t k = arg_u64(argv[0]);
  const std::uint64_t s = arg_u64(argv[1]);
  const double eta = arg_eta(argv[2]);
  if (k == 0 || k > kMaxEffortWidth)
    throw UsageError("effort's k must be in [1, 4096]");
  if (s == 0 || s > sketch_detail::kMaxDepth)
    throw UsageError("effort's s must be in [1, 64]");
  std::printf("k=%llu s=%llu eta=%g:\n", static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(s), eta);
  std::printf("  targeted attack needs L_{k,s} = %llu distinct forged ids\n",
              static_cast<unsigned long long>(
                  targeted_attack_effort(k, s, eta)));
  std::printf("  flooding attack needs E_k    = %llu distinct forged ids\n",
              static_cast<unsigned long long>(flooding_attack_effort(k, eta)));
  return 0;
}

int cmd_detect(int argc, char** argv) {
  if (argc < 1) return usage();
  std::string v;
  DetectorConfig cfg;
  cfg.window = flag_value(argc, argv, "window", v) ? arg_u64(v.c_str())
                                                   : 10000;
  if (cfg.window == 0) throw UsageError("--window must be positive");
  cfg.heavy_capacity = 256;
  const Stream trace = load_stream_text(argv[0]);
  AttackDetector detector(cfg);
  for (NodeId id : trace) detector.observe(id);
  for (const auto& r : detector.history()) {
    std::printf("window %llu: signal=%s top_share=%.4f distinct=%.0f "
                "entropy=%.3f\n",
                static_cast<unsigned long long>(r.window_index),
                to_string(r.signal).data(), r.top_share, r.distinct,
                r.normalized_entropy);
  }
  std::printf("verdict: %s\n", to_string(detector.worst_signal()).data());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 1) return usage();
  const Stream trace = load_stream_text(argv[0]);
  const TraceStats stats = compute_stats(trace);
  std::printf("ids: %llu\ndistinct: %llu\nmax frequency: %llu\n",
              static_cast<unsigned long long>(stats.stream_size),
              static_cast<unsigned long long>(stats.distinct_ids),
              static_cast<unsigned long long>(stats.max_frequency));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_usage(stdout);
    return 0;
  }
  try {
    if (cmd == "gen-trace") return cmd_gen_trace(argc - 2, argv + 2);
    if (cmd == "gen-attack") return cmd_gen_attack(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "kl") return cmd_kl(argc - 2, argv + 2);
    if (cmd == "effort") return cmd_effort(argc - 2, argv + 2);
    if (cmd == "detect") return cmd_detect(argc - 2, argv + 2);
    if (cmd == "stats") return cmd_stats(argc - 2, argv + 2);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
