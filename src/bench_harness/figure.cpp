#include "bench_harness/figure.hpp"

#include <bit>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string_view>

#include "bench_harness/json_writer.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"

namespace unisamp::bench_harness {

std::uint64_t FigureSeries::row_checksum(std::size_t index) const {
  std::uint64_t acc = kChecksumSeed;
  for (const double v : rows[index])
    acc = checksum_fold(acc, std::bit_cast<std::uint64_t>(v));
  return acc;
}

std::uint64_t FigureSeries::checksum() const {
  std::uint64_t acc = kChecksumSeed;
  for (const auto& row : rows)
    for (const double v : row)
      acc = checksum_fold(acc, std::bit_cast<std::uint64_t>(v));
  return acc;
}

FigureCli parse_figure_cli(int argc, const char* const* argv) {
  FigureCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      cli.help = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const std::optional<std::uint64_t> v =
          parse_u64(std::string_view(arg).substr(7));
      if (!v || *v == 0) {
        cli.error = "invalid --seed value: " + arg;
        return cli;
      }
      cli.seed = *v;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      cli.out_dir = arg.substr(10);
      if (cli.out_dir.empty()) {
        cli.error = "empty --out-dir";
        return cli;
      }
    } else {
      cli.error = "unknown option: " + arg;
      return cli;
    }
  }
  return cli;
}

ScenarioReport run_figure(const FigureDef& def, const FigureContext& ctx,
                          FigureSeries& series) {
  Scenario scenario;
  scenario.name = "fig/" + def.slug;
  scenario.description = def.title;
  scenario.full_items = 1;  // figures define their own sweep; budget unused
  scenario.quick_items = 1;
  scenario.run = [&](std::uint64_t, std::uint64_t) {
    series = FigureSeries{};
    series.columns = def.columns;
    const std::uint64_t items = def.compute(ctx, series);
    return ScenarioResult{items, series.checksum()};
  };
  RunOptions opts;
  opts.warmup = 0;
  opts.repeats = 1;
  opts.quick = ctx.quick;
  opts.seed = ctx.seed;
  return run_scenario(scenario, opts);
}

std::string figure_json(const FigureDef& def, const FigureContext& ctx,
                        const ScenarioReport& report,
                        const FigureSeries& series) {
  JsonWriter w;
  w.begin_object();
  w.member("schema", "unisamp-figure-v1");
  w.member("artefact", std::string_view(def.artefact));
  w.member("scenario", std::string_view(report.name));
  w.member("description", std::string_view(report.description));
  w.member("quick", ctx.quick);
  w.member("seed", ctx.seed);
  w.key("timing");
  w.begin_object();
  w.member("items", report.items);
  w.member("ns_per_op", report.ns_per_op.median);
  w.member("items_per_sec", report.items_per_sec);
  w.end_object();
  w.member("checksum", report.checksum);
  w.key("columns");
  w.begin_array();
  for (const std::string& c : series.columns) w.value(std::string_view(c));
  w.end_array();
  w.key("rows");
  w.begin_array();
  for (const auto& row : series.rows) {
    w.begin_array();
    for (const double v : row) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool write_figure_csv(const std::string& path, const FigureSeries& series) {
  CsvWriter csv(path);
  std::vector<std::string> header(series.columns.begin(),
                                  series.columns.end());
  csv.row(header);
  for (const auto& row : series.rows) csv.row_numeric(row);
  return csv.good();
}

bool write_figure_json(const std::string& path, const FigureDef& def,
                       const FigureContext& ctx, const ScenarioReport& report,
                       const FigureSeries& series) {
  std::ofstream out(path);
  if (!out) return false;
  out << figure_json(def, ctx, report, series) << '\n';
  return out.good();
}

int run_figure_main(const FigureDef& def, int argc,
                    const char* const* argv) {
  const FigureCli cli = parse_figure_cli(argc, argv);
  if (!cli.error.empty()) {
    std::fprintf(stderr, "%s\nusage: %s [--quick] [--seed=N] [--out-dir=DIR]\n",
                 cli.error.c_str(), def.slug.c_str());
    return 2;
  }
  if (cli.help) {
    std::printf("%s — %s\n", def.artefact.c_str(), def.title.c_str());
    std::printf("usage: %s [--quick] [--seed=N] [--out-dir=DIR]\n"
                "  --quick        reduced sweeps/trials (CI smoke budget)\n"
                "  --seed=N       override the figure's master seed\n"
                "  --out-dir=DIR  where to write <slug>.{csv,json} "
                "(default bench_results)\n",
                def.slug.c_str());
    return 0;
  }

  FigureContext ctx;
  ctx.quick = cli.quick;
  ctx.seed = cli.seed != 0 ? cli.seed : def.seed;

  std::printf("==============================================================\n");
  std::printf("%s — %s\n", def.artefact.c_str(), def.title.c_str());
  if (!def.settings.empty())
    std::printf("settings: %s%s\n", def.settings.c_str(),
                ctx.quick ? "  [--quick]" : "");
  else if (ctx.quick)
    std::printf("settings: [--quick]\n");
  std::printf("==============================================================\n");

  FigureSeries series;
  ScenarioReport report;
  try {
    report = run_figure(def, ctx, series);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", def.slug.c_str(), e.what());
    return 1;
  }
  if (def.render) def.render(ctx, series);

  std::error_code ec;
  std::filesystem::create_directories(cli.out_dir, ec);
  const std::string stem = cli.out_dir + "/" + def.slug;
  // A phantom artefact is worse than none: any write failure is fatal.
  if (!write_figure_csv(stem + ".csv", series)) {
    std::fprintf(stderr, "failed to write %s.csv\n", stem.c_str());
    return 1;
  }
  if (!write_figure_json(stem + ".json", def, ctx, report, series)) {
    std::fprintf(stderr, "failed to write %s.json\n", stem.c_str());
    return 1;
  }
  std::printf("series written to %s.{csv,json}\n", stem.c_str());
  // Timing goes to stderr: stdout and the CSV stay bit-identical across
  // runs/thread counts; only the sidecar's "timing" object carries clock.
  std::fprintf(stderr, "%llu items in %.0f ns/op\n",
               static_cast<unsigned long long>(report.items),
               report.ns_per_op.median);
  return 0;
}

}  // namespace unisamp::bench_harness
