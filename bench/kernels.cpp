// Kernel throughput: the per-element cost of every hot path the paper's
// model asks to "keep pace with the data stream" (Sec. III-A) — the three
// sampler strategies, Count-Min update and estimate, the batched and the
// sharded SamplingService ingest, a gossip round under flooding,
// targeted-attack ingestion, run_trials dispatch and the two baseline
// samplers (min-wise and reservoir).
//
// Each kernel is a bench_harness Scenario run through run_scenario() with
// one warmup and 5 timed repetitions (1 under --quick); the runner refuses
// repetitions whose checksums disagree.  Expensive input construction
// (streams, pre-populated sketches) is memoised per (items, seed) so the
// warmup repetition pays for it and the timed repetitions measure only the
// hot path under test.
//
// The series rows are deterministic — {scenario_index, items,
// checksum_hi32, checksum_lo32}, where hi << 32 | lo is the kernel's 64-bit
// checksum (a double cannot hold it whole; the series checksum folds the
// exact halves, and stdout prints the joined value, since the CSV and the
// sidecar round cells to 8 and 6 significant digits) — while the median
// ns/op of each kernel goes to stderr.  Scenario indices:
// 0 sampler/omniscient, 1 sampler/knowledge_free, 2 sampler/conservative,
// 3 sketch/count_min_update, 4 sketch/conservative_update,
// 5 sketch/count_min_estimate, 6 service/batch_ingest,
// 7 service/sharded_ingest, 8 gossip/round, 9 attack/targeted_ingest,
// 10 parallel/run_trials, 11 baseline/minwise, 12 baseline/reservoir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "adversary/attacks.hpp"
#include "baseline/minwise_sampler.hpp"
#include "baseline/reservoir_sampler.hpp"
#include "bench_harness/runner.hpp"
#include "core/knowledge_free_sampler.hpp"
#include "core/omniscient_sampler.hpp"
#include "core/sampling_service.hpp"
#include "core/sharded_service.hpp"
#include "figures.hpp"
#include "sim/driver.hpp"
#include "sim/gossip.hpp"
#include "sim/topology.hpp"
#include "sketch/count_min.hpp"
#include "stream/generators.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {
using namespace unisamp;
namespace bh = unisamp::bench_harness;

// Checksum convention shared by every figure — see
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

/// service/sharded_ingest runs S = 4 shards.
constexpr std::size_t kShards = 4;

std::vector<bh::Scenario> kernel_scenarios() {
  std::vector<bh::Scenario> out;
  const auto add = [&out](bh::Scenario s) { out.push_back(std::move(s)); };

  // The Zipf workload stream is shared by the sampler, service ingest and
  // baseline scenarios: one memo, built once per (items, seed).
  const auto stream = std::make_shared<Memo<Stream>>();

  // -- sampler strategy throughput (omniscient vs knowledge-free vs
  //    conservative): the paper's three-way comparison as ns/op.
  {
    add({"sampler/omniscient",
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
    add({"sampler/knowledge_free",
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
    add({"sampler/conservative",
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
  add({"sketch/count_min_update",
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
  add({"sketch/conservative_update",
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
    add({"sketch/count_min_estimate",
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
    add({"service/batch_ingest",
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

  // -- the sharded concurrent ingest front: S = 4 sampler shards fed
  //    through parallel_for_index.  The checksum depends on the shard
  //    count (different partitions, different per-shard seeds) but never
  //    on the thread count — ShardedServiceTest pins that across an
  //    S x threads matrix.
  {
    add({"service/sharded_ingest",
         "ShardedSamplingService ingest, kf strategy, 4 shards",
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
           config.shard_count = kShards;
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
  add({"gossip/round",
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
    add({"attack/targeted_ingest",
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
  add({"parallel/run_trials",
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

  // -- the baselines the paper positions itself against (Sec. I, II), on
  //    the shared Zipf stream.
  add({"baseline/minwise",
       "MinWiseSampler (Bortnikov et al.), 10 min-wise slots, same stream",
       2'000'000, 100'000,
       [stream](std::uint64_t items, std::uint64_t seed) {
         const Stream& in = stream->get(items, seed, make_zipf_stream);
         MinWiseSampler sampler(10, derive_seed(seed, 81));
         const Stream out = sampler.run(in);
         return bh::ScenarioResult{in.size(), fold_stream(out)};
       }});
  add({"baseline/reservoir",
       "ReservoirSampler (Vitter's Algorithm R), c=100, same stream",
       2'000'000, 100'000,
       [stream](std::uint64_t items, std::uint64_t seed) {
         const Stream& in = stream->get(items, seed, make_zipf_stream);
         ReservoirSampler sampler(kMemory, derive_seed(seed, 82));
         const Stream out = sampler.run(in);
         return bh::ScenarioResult{in.size(), fold_stream(out)};
       }});
  return out;
}

struct KernelTiming {
  std::string name;
  double ns_per_op = 0.0;
};
struct KernelState {
  std::vector<KernelTiming> timings;
};

}  // namespace

namespace unisamp::figures {

FigureDef make_kernels() {
  auto state = std::make_shared<KernelState>();

  FigureDef def;
  def.slug = "kernels";
  def.artefact = "Kernel throughput";
  def.title = "per-element cost and checksum of the sampler, sketch, service, "
              "gossip, attack, trial-pool and baseline kernels";
  def.settings = "Zipf(1.2) stream, n = 1000, c = 100, k = 10, s = 17; "
                 "1 warmup + 5 timed repetitions per kernel (1 under --quick)";
  def.seed = 1;
  def.columns = {"scenario_index", "items", "checksum_hi32", "checksum_lo32"};
  def.compute = [state](const bh::FigureContext& ctx,
                        bh::FigureSeries& series) -> std::uint64_t {
    state->timings.clear();
    bh::RunOptions opts;
    opts.warmup = 1;
    opts.repeats = ctx.pick(5, 1);
    opts.quick = ctx.quick;
    opts.seed = ctx.seed;
    const std::vector<bh::Scenario> scenarios = kernel_scenarios();
    std::uint64_t total_items = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const bh::ScenarioReport report = bh::run_scenario(scenarios[i], opts);
      state->timings.push_back({report.name, report.ns_per_op.median});
      series.add_row({static_cast<double>(i),
                      static_cast<double>(report.items),
                      static_cast<double>(report.checksum >> 32),
                      static_cast<double>(report.checksum & 0xffffffffULL)});
      total_items += report.items *
                     static_cast<std::uint64_t>(opts.warmup + opts.repeats);
    }
    return total_items;
  };
  def.render = [state](const bh::FigureContext&,
                       const bh::FigureSeries& series) {
    AsciiTable table;
    table.set_header({"kernel", "items", "checksum"});
    for (const auto& row : series.rows) {
      const std::uint64_t checksum =
          static_cast<std::uint64_t>(row[2]) << 32 |
          static_cast<std::uint64_t>(row[3]);
      table.add_row({state->timings[static_cast<std::size_t>(row[0])].name,
                     std::to_string(static_cast<std::uint64_t>(row[1])),
                     std::to_string(checksum)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nper-kernel median ns/op is on stderr (wall clock never "
                "touches stdout or the CSV).\n");
    for (const auto& t : state->timings)
      std::fprintf(stderr, "%-28s %8.1f ns/op\n", t.name.c_str(),
                   t.ns_per_op);
  };
  return def;
}

}  // namespace unisamp::figures
