// Adaptive adversary walkthrough — the scenario engine end to end.
//
//   build/examples/adaptive_adversary [rounds_per_phase]
//
// The paper analyses STATIC attacks: the adversary fixes a targeted or
// flooding stream up front (Sec. V).  The scenario subsystem
// (src/scenario) asks the follow-up question: what if the adversary
// adapts while the system runs?  A ScenarioSpec is plain data composing
// topology x churn x sampler x a phased attack schedule; this program
// builds one four-phase campaign, runs it, and annotates the pollution
// timeline the engine measures.
#include <cstdio>

#include "scenario/engine.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace unisamp;
  using namespace unisamp::scenario;

  // A malformed argument reads as 0 and gets the usage message.
  const std::size_t phase_rounds =
      argc > 1 ? parse_u64(argv[1]).value_or(0) : 20;
  if (phase_rounds == 0) {
    std::fprintf(stderr, "usage: %s [rounds_per_phase >= 1]\n", argv[0]);
    return 1;
  }

  // The declarative part: one value describes the whole experiment.
  ScenarioSpec spec;
  spec.name = "walkthrough";
  spec.topology.kind = TopologySpec::Kind::kRandomRegular;
  spec.topology.nodes = 40;
  spec.topology.degree = 4;
  spec.gossip.fanout = 2;
  spec.gossip.seed = 42;
  spec.gossip.byzantine_count = 4;   // 10% byzantine members
  spec.gossip.flood_factor = 30;     // ids per neighbour per round
  spec.gossip.forged_id_count = 4;   // the static Sybil pool (ell)
  spec.sampler.memory_size = 8;      // c
  spec.sampler.sketch_width = 6;     // k
  spec.sampler.sketch_depth = 4;     // s
  spec.sampler.record_output = false;
  spec.victim = 39;                  // the node the adversary singles out
  ChurnConfig churn;                 // pre-T0 joins/leaves, then stability
  churn.pre_t0_rounds = 20;
  churn.seed = 42;
  spec.churn = churn;
  spec.measure_every = phase_rounds / 2 ? phase_rounds / 2 : 1;
  spec.schedule = {
      {AttackKind::kStaticFlood, phase_rounds, 0.0, 0},
      {AttackKind::kEstimateProbing, phase_rounds, 0.8, 0},
      {AttackKind::kEclipseFlood, phase_rounds, 0.8, 0},
      {AttackKind::kSybilChurn, phase_rounds, 0.0, /*rotate_every=*/5},
  };

  std::printf("scenario '%s': %zu nodes (%s, degree %zu), %zu byzantine, "
              "victim = node %zu\n",
              spec.name.c_str(), spec.topology.nodes,
              std::string(to_string(spec.topology.kind)).c_str(),
              spec.topology.degree, spec.gossip.byzantine_count, spec.victim);
  std::printf("schedule (%zu rounds per phase, after %zu churn rounds):\n",
              phase_rounds, churn.pre_t0_rounds);
  for (std::size_t p = 0; p < spec.schedule.size(); ++p)
    std::printf("  phase %zu: %s (intensity %.1f)\n", p,
                std::string(to_string(spec.schedule[p].kind)).c_str(),
                spec.schedule[p].intensity);

  ScenarioEngine engine(spec);
  const ScenarioRunReport report = engine.run();

  std::printf("\npre-T0 churn: %zu join/leave events, then membership "
              "froze (Sec. III-C).\n\n",
              report.churn_events);
  AsciiTable table;
  table.set_header({"round", "phase", "output poll.", "victim poll.",
                    "memory poll.", "distinct ids"});
  for (const auto& point : report.points)
    table.add_row({std::to_string(point.round),
                   std::string(to_string(spec.schedule[point.phase].kind)),
                   format_double(point.output_pollution, 3),
                   format_double(point.victim_output_pollution, 3),
                   format_double(point.memory_pollution, 3),
                   format_double(point.distinct_malicious, 4)});
  std::printf("%s", table.render().c_str());

  std::printf(
      "\nreading the timeline:\n"
      " * static flood — the paper's model; pollution plateaus once the\n"
      "   sketch has absorbed the forged ids' frequencies.\n"
      " * estimate-probing — floods the ids the victim's output\n"
      "   under-represents; same budget, more victim pollution.\n"
      " * eclipse — same budget again, concentrated on the victim's\n"
      "   neighbourhood: victim pollution pulls away from the network mean.\n"
      " * sybil churn — fresh identities every 5 rounds defeat the\n"
      "   frequency oracle, but the last column is the certificate bill:\n"
      "   the paper's Sybil cost model is exactly what meters this.\n"
      "Every row is deterministic: rerun this program and diff nothing.\n");
  return 0;
}
