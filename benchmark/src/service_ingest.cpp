// service_ingest: one SamplingService (Algorithm 3, kf strategy) fed
// 4096-id batches of the paper's targeted attack (Sec. V-A): half honest
// uniform ids over n = 1000, half injections spread over L = 200 forged ids,
// replayed cyclically.  The state is one hot sketch, so the sketch and core
// layers do almost all the work.
//
// Traced run: besides the service, two isolation replays consume the same
// batches — the NodeSampler that make_sampler() builds from the same
// config, and a bare CountMinSketch of the same dimensions and seed driven
// through the batched front end the sampler uses.  Differences of their
// times give each layer's self time.
#include <algorithm>
#include <optional>

#include "adversary/attacks.hpp"
#include "common.hpp"
#include "core/knowledge_free_sampler.hpp"
#include "core/sampling_service.hpp"
#include "stream/generators.hpp"

namespace ubench {
namespace {

using namespace unisamp;

constexpr std::size_t kDomain = 1000;
constexpr std::size_t kForgedIds = 200;
constexpr std::size_t kBatch = 4096;

struct Shape {
  std::uint64_t honest_ids;   ///< honest half of the attack stream
  std::uint64_t repetitions;  ///< injections per forged id
  std::size_t nominal_steps;
  std::size_t self_test_steps;
  std::size_t warmup;
  std::size_t setup_reps;
};

Shape shape_of(const RunOptions& opts) {
  if (opts.self_test) return {32'768, 164, 32'768, 48, 4, 1};
  return {2'000'000, 10'000, 57'344, 48, 64, 9};
}

ServiceConfig service_config(std::uint64_t seed) {
  ServiceConfig config;
  config.strategy = Strategy::kKnowledgeFree;
  config.memory_size = 100;
  config.sketch_width = 10;
  config.sketch_depth = 17;
  config.seed = derive_seed(seed, 2);
  config.record_output = false;
  return config;
}

/// The attack stream plus a copy of its first batch appended, so every
/// cyclic batch is one contiguous span.
struct Input {
  Stream ids;
  std::size_t cycle = 0;
  std::vector<NodeId> forged;  // sorted
};

Input make_input(const Shape& shape, std::uint64_t seed) {
  const auto base =
      counts_from_weights(uniform_weights(kDomain), shape.honest_ids, 1);
  AttackStream attack = make_targeted_attack(base, kForgedIds,
                                             shape.repetitions,
                                             derive_seed(seed, 1));
  Input in;
  in.cycle = attack.stream.size();
  in.ids = std::move(attack.stream);
  in.ids.resize(in.cycle + kBatch);
  std::copy_n(in.ids.begin(), kBatch,
              in.ids.begin() + static_cast<std::ptrdiff_t>(in.cycle));
  in.forged = std::move(attack.malicious_ids);
  std::sort(in.forged.begin(), in.forged.end());
  return in;
}

std::span<const NodeId> batch(const Input& in, std::size_t step) {
  return {in.ids.data() + (step * kBatch) % in.cycle, kBatch};
}

std::uint64_t histogram_checksum(const FrequencyHistogram& h,
                                 const std::vector<NodeId>& forged) {
  std::uint64_t acc = kChecksumSeed;
  for (NodeId id = 0; id < kDomain; ++id) acc = fold(acc, h.count(id));
  for (const NodeId id : forged) acc = fold(acc, h.count(id));
  return fold(acc, h.total());
}

std::uint64_t service_checksum(const SamplingService& svc,
                               const std::vector<NodeId>& forged) {
  std::uint64_t acc = fold(histogram_checksum(svc.output_histogram(), forged),
                           svc.processed());
  for (const NodeId id : svc.sampler().memory()) acc = fold(acc, id);
  return acc;
}

double forged_share(const FrequencyHistogram& h,
                    const std::vector<NodeId>& forged) {
  std::uint64_t bad = 0;
  for (const NodeId id : forged) bad += h.count(id);
  return h.total() == 0 ? 0.0
                        : static_cast<double>(bad) /
                              static_cast<double>(h.total());
}

/// Feeds one batch, timed as one step when `steps` is given, and checks
/// that processed() advanced by exactly the batch size.
void feed(SamplingService& svc, std::span<const NodeId> ids, Checks& checks,
          StepTimer* steps = nullptr) {
  const std::uint64_t before = svc.processed();
  if (steps != nullptr) steps->start();
  svc.on_receive_stream(ids);
  if (steps != nullptr) steps->stop();
  checks.expect(svc.processed() == before + ids.size(),
                "service_ingest: processed() did not advance by the batch");
}

}  // namespace

Result run_service_ingest(const RunOptions& opts) {
  const Shape shape = shape_of(opts);
  const ServiceConfig config = service_config(opts.seed);
  Result result;
  result.warmup = shape.warmup;
  result.steps = step_count(opts, shape.nominal_steps, shape.self_test_steps);

  // Set-up: input generation + service construction, repeated; the median
  // is reported and the last repetition's objects are used.
  std::optional<Input> input;
  std::optional<SamplingService> service;
  StepTimer setup;
  std::vector<std::pair<std::int64_t, std::int64_t>> generation;
  for (std::size_t rep = 0; rep < shape.setup_reps; ++rep) {
    service.reset();
    input.reset();
    const std::int64_t t0 = now_ns();
    input.emplace(make_input(shape, opts.seed));
    const std::int64_t t1 = now_ns();
    service.emplace(config);
    setup.record(t0, now_ns());
    generation.emplace_back(t0, t1);
  }
  setup.finish();

  Checks& checks = result.checks;
  std::size_t step = 0;
  for (; step < shape.warmup; ++step) feed(*service, batch(*input, step), checks);
  StepTimer steps;
  for (std::size_t i = 0; i < result.steps; ++i, ++step)
    feed(*service, batch(*input, step), checks, &steps);
  steps.finish();
  result.checksum = service_checksum(*service, input->forged);
  const double ids = static_cast<double>(result.steps * kBatch);

  if (!opts.traced) {
    set_end_to_end(result, steps, ids, setup,
                   forged_share(service->output_histogram(), input->forged),
                   0.0);
    return result;
  }

  // Traced run over the same batches, on fresh state: the service, plus
  // the sampler and sketch isolation replays.
  SamplingService traced(config);
  const std::unique_ptr<NodeSampler> sampler = make_sampler(config);
  CountMinSketch sketch(CountMinParams::from_dimensions(
      config.sketch_width, config.sketch_depth, config.seed));
  FrequencyHistogram sampler_hist;
  Stream sampler_out;
  sampler_out.reserve(kBatch);
  std::uint32_t pre[CountMinSketch::kMaxDepth * CountMinSketch::kPrehashBlock];
  const auto replay_sketch = [&](std::span<const NodeId> b) {
    for (std::size_t off = 0; off < b.size();
         off += CountMinSketch::kPrehashBlock) {
      const std::size_t n =
          std::min(CountMinSketch::kPrehashBlock, b.size() - off);
      sketch.prehash_block(b.data() + off, n, pre);
      for (std::size_t i = 0; i < n; ++i)
        sketch.update_and_estimate_prehashed(pre, i);
    }
  };
  const auto replay_sampler = [&](std::span<const NodeId> b) {
    sampler_out.clear();
    sampler->process_stream(b, sampler_out);
  };
  step = 0;
  for (; step < shape.warmup; ++step) {
    const auto b = batch(*input, step);
    feed(traced, b, checks);
    replay_sampler(b);
    sampler_hist.add_stream(sampler_out);
    replay_sketch(b);
  }
  Trace& trace = result.trace;
  StepTimer traced_steps;
  for (std::size_t i = 0; i < result.steps; ++i, ++step) {
    const auto s = static_cast<std::int64_t>(i);
    const std::int64_t t0 = now_ns();
    const auto b = batch(*input, step);
    const std::uint64_t before = traced.processed();
    const std::int64_t t1 = now_ns();
    traced.on_receive_stream(b);
    const std::int64_t t2 = now_ns();
    checks.expect(traced.processed() == before + b.size(),
                  "service_ingest: processed() did not advance by the batch");
    const std::int64_t t3 = now_ns();
    replay_sampler(b);
    const std::int64_t t4 = now_ns();
    replay_sketch(b);
    const std::int64_t t5 = now_ns();
    trace.add("step", "", s, t0, t3);
    trace.add("core.service", "step", s, t1, t2);
    trace.add("core.sampler.replay", "", s, t3, t4);
    trace.add("sketch.replay", "", s, t4, t5);
    traced_steps.record(t0, t5);
    sampler_hist.add_stream(sampler_out);
  }
  traced_steps.finish();
  trace.to_reference();
  checks.expect(service_checksum(traced, input->forged) == result.checksum,
                "service_ingest: traced checksum differs from untraced");
  checks.expect(histogram_checksum(sampler_hist, input->forged) ==
                    histogram_checksum(traced.output_histogram(),
                                       input->forged),
                "service_ingest: sampler replay histogram differs");
  const auto* kf = dynamic_cast<const KnowledgeFreeSampler*>(sampler.get());
  checks.expect(kf != nullptr && kf->sketch().min_counter() ==
                                     sketch.min_counter() &&
                    kf->sketch().total_count() == sketch.total_count(),
                "service_ingest: sketch replay state differs from sampler's");

  const double service_ns = trace.total_ns("core.service");
  const double sampler_ns = trace.total_ns("core.sampler.replay");
  const double sketch_ns = trace.total_ns("sketch.replay");
  std::vector<double> generate_ms;
  for (const auto& [t0, t1] : generation)
    generate_ms.push_back(reference_ns(t0, t1) / 1e6);
  auto& m = result.metrics;
  m["sketch.ns_per_id"] = sketch_ns / ids;
  m["core.sampler.ns_per_id"] = sampler_ns / ids;
  m["core.sampler.self_ns_per_id"] = (sampler_ns - sketch_ns) / ids;
  m["core.service.ns_per_id"] = service_ns / ids;
  m["core.service.self_ns_per_id"] = (service_ns - sampler_ns) / ids;
  m["stream.generate_ms"] = SampleStats::from(generate_ms).median;
  m["trace.coverage"] = service_ns / trace.total_ns("step");
  m["trace.overhead_frac"] = service_ns / 1e9 / steps.ref_total_s() - 1.0;
  return result;
}

}  // namespace ubench
