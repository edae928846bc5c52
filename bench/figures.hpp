// Registry of every figure/table definition in bench/.
//
// Each bench/<name>.cpp implements make_<name>() returning the FigureDef
// for that paper artefact; the per-artefact executables are all the same
// bench/figure_main.cpp compiled with FIGURE_FACTORY=make_<name>.  The
// definitions also compile into the `unisamp_figures` static library so
// tests (tests/figure_harness_test.cpp) can run them in-process.
//
// Adding a figure: implement make_<name>() in bench/<name>.cpp, declare it
// here, add the name to UNISAMP_BENCHES in bench/CMakeLists.txt, and
// document it in docs/figures.md (tools/check_docs.py enforces the last
// step).
#pragma once

#include "bench_harness/figure.hpp"

namespace unisamp::figures {

using bench_harness::FigureDef;

FigureDef make_fig3_targeted_effort();
FigureDef make_fig4_flooding_effort();
FigureDef make_fig5_trace_distributions();
FigureDef make_fig6_isopleth();
FigureDef make_fig7_attacks();
FigureDef make_fig8_gain_vs_n();
FigureDef make_fig9_gain_vs_m();
FigureDef make_fig10_gain_vs_c();
FigureDef make_fig11_gain_vs_malicious();
FigureDef make_fig12_real_traces();
FigureDef make_table1_key_values();
FigureDef make_table2_trace_stats();
FigureDef make_ablation_sketch();
FigureDef make_adaptive_probing();
FigureDef make_attack_schedule();
FigureDef make_baseline_comparison();
FigureDef make_colluding_isopleth();
FigureDef make_defense_frontier();
FigureDef make_dragonfly_event_scale();
FigureDef make_eclipse_flood();
FigureDef make_event_latency_scale();
FigureDef make_topology_placement();
FigureDef make_brahms_views();
FigureDef make_gain_model_validation();
FigureDef make_markov_stationary();
FigureDef make_kernels();
FigureDef make_network_gain();
FigureDef make_online_diagnostics();
FigureDef make_sybil_churn();
FigureDef make_trace_replay_workload();
FigureDef make_transient_mixing();

}  // namespace unisamp::figures
