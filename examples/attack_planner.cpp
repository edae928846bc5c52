// Attack planner — the defender's dimensioning tool (paper Sec. V).
//
//   build/examples/attack_planner [k] [s]
//
// Given a sketch dimensioning (k columns, s rows), prints how many DISTINCT
// forged identities an adversary must obtain (each one costs a certificate
// from the central authority — the Sybil cost model) to subvert a node's
// sampler with various success probabilities: L_{k,s} for a targeted attack
// on one victim id, E_k for flooding every estimate.  The paper's headline:
// these numbers are independent of the system size n — adding sampler
// memory makes subversion arbitrarily expensive.
#include <cstdio>

#include "analysis/urn.hpp"
#include "sketch/count_min.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace unisamp;

  // A malformed argument reads as 0 and gets the usage message.
  const std::uint64_t k = argc > 1 ? parse_u64(argv[1]).value_or(0) : 50;
  const std::uint64_t s = argc > 2 ? parse_u64(argv[2]).value_or(0) : 10;
  if (k == 0 || s == 0) {
    std::fprintf(stderr, "usage: %s [k >= 1] [s >= 1]\n", argv[0]);
    return 1;
  }

  const auto params = CountMinParams::from_dimensions(k, s, 0);
  std::printf("sampler dimensioning: k = %llu columns, s = %llu rows "
              "(%llu counters total)\n",
              static_cast<unsigned long long>(k),
              static_cast<unsigned long long>(s),
              static_cast<unsigned long long>(k * s));
  std::printf("count-min guarantee: eps = %.4f, delta = %.2e\n\n",
              params.epsilon(), params.delta());

  AsciiTable table;
  table.set_header({"attack success prob.", "targeted: L_{k,s} forged ids",
                    "flooding: E_k forged ids"});
  for (double eta : {0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-6}) {
    table.add_row({format_double(1.0 - eta, 6),
                   format_with_commas(static_cast<long long>(
                       targeted_attack_effort(k, s, eta))),
                   format_with_commas(static_cast<long long>(
                       flooding_attack_effort(k, eta)))});
  }
  std::printf("%s", table.render().c_str());

  std::printf("\nreading: to bias ONE victim's estimate with 99.99%% "
              "confidence the adversary\nneeds %s distinct certified "
              "identities; to bias EVERYONE, %s.  Doubling k\nroughly "
              "doubles both — and none of this depends on the population "
              "size.\n",
              format_with_commas(static_cast<long long>(
                                     targeted_attack_effort(k, s, 1e-4)))
                  .c_str(),
              format_with_commas(
                  static_cast<long long>(flooding_attack_effort(k, 1e-4)))
                  .c_str());
  return 0;
}
