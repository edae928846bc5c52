// unisamp_bench — the unified throughput benchmark of the repo.
//
//   unisamp_bench [--quick] [--filter=SUBSTR] [--repeats=N] [--warmup=N]
//                 [--seed=N] [--out=PATH] [--list]
//
// Registers the core scenarios (sampler strategies, Count-Min update and
// estimate, the batched SamplingService ingest path, a gossip-simulation
// round, attack-stream ingestion, and run_trials scaling) with the
// bench_harness runner and writes one schema-stable JSON report
// (unisamp-bench-v1, see src/bench_harness/runner.hpp) — the file the
// committed BENCH_baseline.json is seeded from and that CI's bench-smoke
// job feeds to tools/check_bench_regression.py.
//
// Every scenario derives all randomness from the seed the runner hands it,
// so repeated runs are bit-identical (the runner enforces this via the
// per-repetition checksum).  Expensive input construction (streams,
// pre-populated sketches) is memoised per (items, seed) so the warmup
// repetition pays for it and the timed repetitions measure only the hot
// path under test.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "adversary/attacks.hpp"
#include "bench_harness/runner.hpp"
#include "core/knowledge_free_sampler.hpp"
#include "core/omniscient_sampler.hpp"
#include "core/sampling_service.hpp"
#include "core/sharded_service.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "sketch/count_min.hpp"
#include "stream/generators.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace {
using namespace unisamp;
namespace bh = unisamp::bench_harness;

// Checksum convention shared with the figure binaries — see
// bench_harness/scenario.hpp.
using bh::checksum_fold;
constexpr auto fold = [](std::uint64_t acc, std::uint64_t v) {
  return checksum_fold(acc, v);
};
constexpr auto fold_stream = [](std::span<const NodeId> ids) {
  return bh::checksum_of(ids);
};

// --- memoised scenario inputs ----------------------------------------------

/// Rebuilds a value only when (items, seed) changes; lets the warmup
/// repetition absorb input construction so timed repetitions measure the
/// component under test, not the generator.
template <typename T>
class Memo {
 public:
  template <typename MakeFn>
  const T& get(std::uint64_t items, std::uint64_t seed, MakeFn&& make) {
    if (!value_ || items != items_ || seed != seed_) {
      value_ = std::make_unique<T>(make(items, seed));
      items_ = items;
      seed_ = seed;
    }
    return *value_;
  }

 private:
  std::unique_ptr<T> value_;
  std::uint64_t items_ = 0;
  std::uint64_t seed_ = 0;
};

/// The shared sampler workload: a Zipf(1.2)-biased stream over n ids — a
/// realistically skewed (but not adversarial) input every strategy can run.
constexpr std::size_t kDomain = 1000;
constexpr std::size_t kMemory = 100;      // c
constexpr std::size_t kSketchWidth = 10;  // k (paper's evaluation setting)
constexpr std::size_t kSketchDepth = 17;  // s

Stream make_zipf_stream(std::uint64_t items, std::uint64_t seed) {
  WeightedStreamGenerator gen(zipf_weights(kDomain, 1.2), derive_seed(seed, 11));
  return gen.take(items);
}

/// Shard count S of service/sharded_ingest.  The scenario checksum depends
/// on S (BENCH_baseline.json records the default, S=4).
std::size_t env_shards() { return env_count("UNISAMP_SHARDS", 4, 256); }

/// Producer count N of service/sharded_ingest.  MUST never move the
/// checksum (sharded-service determinism contract); defaults to the 8
/// producers the multicore baseline records.
std::size_t env_producer_threads() {
  return env_count("UNISAMP_THREADS", 8, 1024);
}

void register_scenarios(bh::ScenarioRegistry& reg) {
  // The Zipf workload stream is shared by the three sampler scenarios and
  // the service ingest scenario: one memo, built once per (items, seed).
  const auto stream = std::make_shared<Memo<Stream>>();

  // -- sampler strategy throughput (omniscient vs knowledge-free vs
  //    conservative): the paper's three-way comparison as ns/op.
  {
    reg.add({"sampler/omniscient",
             "OmniscientSampler over a Zipf(1.2) stream, n=1000, c=100",
             2'000'000, 100'000,
             [stream](std::uint64_t items, std::uint64_t seed) {
               const Stream& in = stream->get(items, seed, make_zipf_stream);
               std::vector<double> p(kDomain, 0.0);
               for (std::size_t j = 0; j < kDomain; ++j)
                 p[j] = 1.0 / std::pow(static_cast<double>(j + 1), 1.2);
               OmniscientSampler sampler(kMemory, std::move(p),
                                         derive_seed(seed, 21));
               const Stream out = sampler.run(in);
               return bh::ScenarioResult{in.size(), fold_stream(out)};
             }});
    reg.add({"sampler/knowledge_free",
             "KnowledgeFreeSampler (Algorithm 3) same stream, k=10, s=17",
             2'000'000, 100'000,
             [stream](std::uint64_t items, std::uint64_t seed) {
               const Stream& in = stream->get(items, seed, make_zipf_stream);
               KnowledgeFreeSampler sampler(
                   kMemory,
                   CountMinParams::from_dimensions(kSketchWidth, kSketchDepth,
                                                   derive_seed(seed, 22)),
                   derive_seed(seed, 23));
               const Stream out = sampler.run(in);
               return bh::ScenarioResult{in.size(), fold_stream(out)};
             }});
    reg.add({"sampler/conservative",
             "Conservative-update ablation of Algorithm 3, k=10, s=17",
             2'000'000, 100'000,
             [stream](std::uint64_t items, std::uint64_t seed) {
               const Stream& in = stream->get(items, seed, make_zipf_stream);
               ConservativeKnowledgeFreeSampler sampler(
                   kMemory,
                   CountMinParams::from_dimensions(kSketchWidth, kSketchDepth,
                                                   derive_seed(seed, 22)),
                   derive_seed(seed, 23));
               const Stream out = sampler.run(in);
               return bh::ScenarioResult{in.size(), fold_stream(out)};
             }});
  }

  // -- raw sketch primitives.
  reg.add({"sketch/count_min_update",
           "CountMinSketch::update, k=512, s=4, uniform random ids",
           4'000'000, 200'000,
           [](std::uint64_t items, std::uint64_t seed) {
             CountMinSketch sketch(
                 CountMinParams::from_dimensions(512, 4, derive_seed(seed, 31)));
             SplitMix64 ids(derive_seed(seed, 32));
             for (std::uint64_t i = 0; i < items; ++i) sketch.update(ids.next());
             return bh::ScenarioResult{
                 items, fold(sketch.min_counter(), sketch.total_count())};
           }});
  reg.add({"sketch/conservative_update",
           "ConservativeCountMinSketch::update, k=512, s=4 (O(1) min track)",
           4'000'000, 200'000,
           [](std::uint64_t items, std::uint64_t seed) {
             ConservativeCountMinSketch sketch(
                 CountMinParams::from_dimensions(512, 4, derive_seed(seed, 31)));
             SplitMix64 ids(derive_seed(seed, 32));
             for (std::uint64_t i = 0; i < items; ++i) sketch.update(ids.next());
             return bh::ScenarioResult{
                 items, fold(sketch.min_counter(), sketch.total_count())};
           }});
  {
    // Estimates run against a sketch pre-populated with `items` updates; the
    // memo keeps population out of the timed loop.
    auto sketch = std::make_shared<Memo<CountMinSketch>>();
    reg.add({"sketch/count_min_estimate",
             "CountMinSketch::estimate on a populated k=512, s=4 sketch",
             4'000'000, 200'000,
             [sketch](std::uint64_t items, std::uint64_t seed) {
               const CountMinSketch& s = sketch->get(
                   items, seed, [](std::uint64_t n, std::uint64_t sd) {
                     CountMinSketch fresh(CountMinParams::from_dimensions(
                         512, 4, derive_seed(sd, 31)));
                     SplitMix64 ids(derive_seed(sd, 32));
                     for (std::uint64_t i = 0; i < n; ++i)
                       fresh.update(ids.next());
                     return fresh;
                   });
               SplitMix64 ids(derive_seed(seed, 33));
               std::uint64_t acc = 0;
               for (std::uint64_t i = 0; i < items; ++i)
                 acc = fold(acc, s.estimate(ids.next()));
               return bh::ScenarioResult{items, acc};
             }});
  }

  // -- the service-level batched ingest path (what the gossip simulator and
  //    any embedding application actually call).
  {
    reg.add({"service/batch_ingest",
             "SamplingService::on_receive_stream, kf strategy, 4096-id batches",
             2'000'000, 100'000,
             [stream](std::uint64_t items, std::uint64_t seed) {
               const Stream& in = stream->get(items, seed, make_zipf_stream);
               ServiceConfig config;
               config.strategy = Strategy::kKnowledgeFree;
               config.memory_size = kMemory;
               config.sketch_width = kSketchWidth;
               config.sketch_depth = kSketchDepth;
               config.seed = derive_seed(seed, 41);
               config.record_output = false;
               SamplingService service(std::move(config));
               constexpr std::size_t kBatch = 4096;
               for (std::size_t base = 0; base < in.size(); base += kBatch)
                 service.on_receive_stream(
                     std::span(in).subspan(base,
                                           std::min(kBatch, in.size() - base)));
               // Fold the full emitted multiset (per-id counts over the
               // domain): any drift in WHICH ids the batch path emits must
               // move the checksum, not just aggregate totals.
               const auto& h = service.output_histogram();
               std::uint64_t acc = bh::kChecksumSeed;
               for (NodeId id = 0; id < kDomain; ++id)
                 acc = fold(acc, h.count(id));
               return bh::ScenarioResult{in.size(), acc};
             }});
  }

  // -- the sharded concurrent ingest front: S sampler shards fed through
  //    per-(producer, shard) SPSC queues.  UNISAMP_SHARDS overrides the
  //    shard count (default 4) and UNISAMP_THREADS the producer count
  //    (default 8) — the checksum depends on the shard count (different
  //    partitions, different per-shard seeds) but NEVER on the producer
  //    count, which is what the CI determinism matrix asserts.
  {
    reg.add({"service/sharded_ingest",
             "ShardedSamplingService ingest, kf strategy, S shards (env "
             "UNISAMP_SHARDS, default 4) x N producers (UNISAMP_THREADS, "
             "default 8)",
             2'000'000, 100'000,
             [stream](std::uint64_t items, std::uint64_t seed) {
               const Stream& in = stream->get(items, seed, make_zipf_stream);
               ShardedServiceConfig config;
               config.base.strategy = Strategy::kKnowledgeFree;
               config.base.memory_size = kMemory;
               config.base.sketch_width = kSketchWidth;
               config.base.sketch_depth = kSketchDepth;
               config.base.seed = derive_seed(seed, 42);
               config.base.record_output = false;
               config.shard_count = env_shards();
               config.producer_threads = env_producer_threads();
               ShardedSamplingService service(std::move(config));
               service.ingest(in);
               // Fold the merged per-id emission counts over the domain
               // plus each shard's processed count: drift in WHICH shard
               // emitted WHAT must move the checksum, not just totals.
               const auto h = service.merged_histogram();
               std::uint64_t acc = bh::kChecksumSeed;
               for (NodeId id = 0; id < kDomain; ++id)
                 acc = fold(acc, h.count(id));
               for (std::size_t s = 0; s < service.shard_count(); ++s)
                 acc = fold(acc, service.shard(s).processed());
               return bh::ScenarioResult{in.size(), acc};
             }});
  }

  // -- one synchronous gossip round under Byzantine flooding: the
  //    end-to-end distributed workload (items = ids delivered to correct
  //    nodes, each of which crosses the full service stack).
  reg.add({"gossip/round",
           "GossipNetwork rounds, n=256 small-world, 32 byzantine flooders",
           500'000, 50'000,
           [](std::uint64_t items, std::uint64_t seed) {
             GossipConfig gossip;
             gossip.fanout = 3;
             gossip.seed = derive_seed(seed, 51);
             gossip.byzantine_count = 32;
             gossip.flood_factor = 8;
             gossip.forged_id_count = 64;
             ServiceConfig sampler;
             sampler.strategy = Strategy::kKnowledgeFree;
             sampler.memory_size = 50;
             sampler.sketch_width = kSketchWidth;
             sampler.sketch_depth = kSketchDepth;
             sampler.seed = derive_seed(seed, 52);
             sampler.record_output = false;
             GossipNetwork net(
                 Topology::small_world(256, 4, 0.1, derive_seed(seed, 53)),
                 gossip, sampler);
             SimDriver driver(net, TimingModel::rounds());
             while (net.delivered() < items) driver.run_ticks(1);
             return bh::ScenarioResult{net.delivered(),
                                       fold_stream(net.sample_correct_nodes())};
           }});

  // -- targeted-attack stream ingestion (Sec. V-A shape): the sketch under
  //    exactly the load the adversary induces.
  {
    auto attack = std::make_shared<Memo<AttackStream>>();
    reg.add({"attack/targeted_ingest",
             "KnowledgeFreeSampler under a targeted attack stream (L=200)",
             2'000'000, 100'000,
             [attack](std::uint64_t items, std::uint64_t seed) {
               const AttackStream& a = attack->get(
                   items, seed, [](std::uint64_t n, std::uint64_t sd) {
                     // Half legitimate uniform traffic, half injections split
                     // over 200 forged ids.
                     const auto base = counts_from_weights(
                         uniform_weights(kDomain), n / 2, 1);
                     return make_targeted_attack(
                         base, 200, std::max<std::uint64_t>(n / 2 / 200, 1),
                         derive_seed(sd, 61));
                   });
               KnowledgeFreeSampler sampler(
                   kMemory,
                   CountMinParams::from_dimensions(kSketchWidth, kSketchDepth,
                                                   derive_seed(seed, 62)),
                   derive_seed(seed, 63));
               const Stream out = sampler.run(a.stream);
               return bh::ScenarioResult{a.stream.size(), fold_stream(out)};
             }});
  }

  // -- the trial-averaging engine the figure reproductions stand on
  //    (throughput of run_trials itself, including pool dispatch).
  reg.add({"parallel/run_trials",
           "run_trials of 2000-id knowledge-free runs (pool dispatch cost)",
           1'000'000, 100'000,
           [](std::uint64_t items, std::uint64_t seed) {
             constexpr std::uint64_t kPerTrial = 2000;
             const std::size_t trials =
                 static_cast<std::size_t>(items / kPerTrial);
             const auto folds = run_trials(trials, [&](std::size_t t) {
               WeightedStreamGenerator gen(
                   zipf_weights(100, 1.2),
                   derive_seed(seed, 71 + static_cast<std::uint64_t>(t)));
               KnowledgeFreeSampler sampler(
                   10,
                   CountMinParams::from_dimensions(
                       kSketchWidth, 5,
                       derive_seed(seed, 500'000 + static_cast<std::uint64_t>(t))),
                   derive_seed(seed, 900'000 + static_cast<std::uint64_t>(t)));
               return fold_stream(sampler.run(gen.take(kPerTrial)));
             });
             std::uint64_t acc = 0;
             for (const std::uint64_t f : folds) acc = fold(acc, f);
             return bh::ScenarioResult{trials * kPerTrial, acc};
           }});
}

// --- CLI --------------------------------------------------------------------

// Strict numeric parsing: a trailing non-digit (--warmup=two) must be an
// error, not a silent 0 — a zero warmup quietly times memoised input
// construction (see usage text).
bool parse_int(const char* s, int& out) {
  const std::optional<std::uint64_t> v = parse_u64(s);
  if (!v || *v > 1'000'000) return false;
  out = static_cast<int>(*v);
  return true;
}

int bad_value(const char* arg) {
  std::fprintf(stderr, "malformed option value: %s\n", arg);
  return 2;
}

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: unisamp_bench [--quick] [--filter=SUBSTR] "
               "[--repeats=N] [--warmup=N] [--seed=N] [--out=PATH] [--list]\n"
               "  --quick     CI-smoke item budgets (~20x smaller)\n"
               "              (keep warmup >= 1 when comparing timings: the\n"
               "              warmup repetition absorbs memoised input\n"
               "              construction, --warmup=0 times it)\n"
               "  --filter    run only scenarios whose name contains SUBSTR\n"
               "  --repeats   timed repetitions per scenario (default 5)\n"
               "  --warmup    untimed repetitions per scenario (default 1)\n"
               "  --seed      master seed (default 1)\n"
               "  --out       JSON report path (default BENCH_unisamp.json)\n"
               "  --list      print scenario names and exit\n");
}

}  // namespace

int main(int argc, char** argv) {
  bh::RunOptions opts;
  opts.log = stdout;
  std::string out_path = "BENCH_unisamp.json";
  bool list_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const char* value = eq == std::string_view::npos ? "" : argv[i] + eq + 1;
    if (name == "--help" || name == "-h") {
      print_usage(stdout);
      return 0;
    } else if (name == "--quick") {
      opts.quick = true;
    } else if (name == "--list") {
      list_only = true;
    } else if (name == "--filter") {
      opts.filter = value;
    } else if (name == "--repeats") {
      if (!parse_int(value, opts.repeats)) return bad_value(argv[i]);
    } else if (name == "--warmup") {
      if (!parse_int(value, opts.warmup)) return bad_value(argv[i]);
    } else if (name == "--seed") {
      const std::optional<std::uint64_t> seed = parse_u64(value);
      if (!seed) return bad_value(argv[i]);
      opts.seed = *seed;
    } else if (name == "--out") {
      out_path = value;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      print_usage(stderr);
      return 2;
    }
  }
  if (opts.repeats < 1 || opts.warmup < 0) {
    std::fprintf(stderr, "invalid --repeats/--warmup\n");
    return 2;
  }

  bh::ScenarioRegistry registry;
  register_scenarios(registry);

  if (list_only) {
    for (const auto* s : registry.match(opts.filter))
      std::printf("%-32s %s\n", s->name.c_str(), s->description.c_str());
    return 0;
  }

  const auto matched = registry.match(opts.filter);
  if (matched.empty()) {
    std::fprintf(stderr, "no scenario matches filter '%s'\n",
                 opts.filter.c_str());
    return 2;
  }

  std::printf("unisamp_bench: %zu scenario(s), %d repeat(s), %s budgets\n",
              matched.size(), opts.repeats, opts.quick ? "quick" : "full");
  const auto reports = bh::run_scenarios(registry, opts);
  if (!bh::write_report_json(out_path, reports, opts)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}
