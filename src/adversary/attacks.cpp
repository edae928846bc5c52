#include "adversary/attacks.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "stream/generators.hpp"

namespace unisamp {

SybilBudget::SybilBudget(NodeId first_id, std::size_t count) {
  ids_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    ids_.push_back(first_id + static_cast<NodeId>(i));
}

AttackStream compose_attack_stream(std::span<const std::uint64_t> base_counts,
                                   std::span<const NodeId> malicious_ids,
                                   std::span<const std::uint64_t> injections,
                                   std::uint64_t seed) {
  if (malicious_ids.size() != injections.size())
    throw std::invalid_argument(
        "one injection count per malicious id required");
  AttackStream out;
  out.malicious_ids.assign(malicious_ids.begin(), malicious_ids.end());
  std::uint64_t total = 0;
  for (auto c : base_counts) total += c;
  for (auto c : injections) total += c;
  out.stream.reserve(total);
  for (std::size_t id = 0; id < base_counts.size(); ++id)
    for (std::uint64_t rep = 0; rep < base_counts[id]; ++rep)
      out.stream.push_back(static_cast<NodeId>(id));
  for (std::size_t i = 0; i < malicious_ids.size(); ++i) {
    for (std::uint64_t rep = 0; rep < injections[i]; ++rep)
      out.stream.push_back(malicious_ids[i]);
    out.injected += injections[i];
  }
  Xoshiro256 rng(seed);
  for (std::size_t i = out.stream.size(); i > 1; --i)
    std::swap(out.stream[i - 1], out.stream[rng.next_below(i)]);
  return out;
}

namespace {
// Uniform-repetition composition: `repetitions` occurrences of every
// malicious id.
AttackStream compose(std::span<const std::uint64_t> base_counts,
                     std::span<const NodeId> malicious_ids,
                     std::uint64_t repetitions, std::uint64_t seed) {
  const std::vector<std::uint64_t> injections(malicious_ids.size(),
                                              repetitions);
  return compose_attack_stream(base_counts, malicious_ids, injections, seed);
}
}  // namespace

AttackStream make_targeted_attack(std::span<const std::uint64_t> base_counts,
                                  std::size_t distinct_ids,
                                  std::uint64_t repetitions,
                                  std::uint64_t seed) {
  if (distinct_ids == 0)
    throw std::invalid_argument("targeted attack needs at least one id");
  SybilBudget budget(static_cast<NodeId>(base_counts.size()), distinct_ids);
  return compose(base_counts, budget.ids(), repetitions, seed);
}

AttackStream make_flooding_attack(std::span<const std::uint64_t> base_counts,
                                  std::size_t distinct_ids,
                                  std::uint64_t repetitions,
                                  std::uint64_t seed) {
  if (distinct_ids == 0)
    throw std::invalid_argument("flooding attack needs at least one id");
  SybilBudget budget(static_cast<NodeId>(base_counts.size()), distinct_ids);
  return compose(base_counts, budget.ids(), repetitions, seed);
}

AttackStream make_poisson_band_attack(std::size_t n, std::uint64_t m,
                                      std::uint64_t seed) {
  // Fig. 7b input shape: every legitimate id keeps a uniform background
  // frequency (~m/2n) while the adversary's injections add a truncated
  // Poisson(n/2) band on top, over-representing ~sqrt(n/2) ids around rank
  // n/2.  A pure Poisson pmf would starve the background to zero, which
  // contradicts the figure (and the weak-connectivity assumption).
  auto weights = truncated_poisson_weights(n, static_cast<double>(n) / 2.0);
  double band_mass = 0.0;
  for (double w : weights) band_mass += w;
  for (double& w : weights)
    w = 0.5 * w / band_mass + 0.5 / static_cast<double>(n);
  const auto counts = counts_from_weights(weights, m, /*min_count=*/1);

  AttackStream out;
  out.stream = exact_stream(counts, seed);
  // Report the over-represented band (counts above twice the uniform share)
  // as the malicious ids: these are the identifiers whose frequency the
  // adversary inflated.
  const double fair = static_cast<double>(m) / static_cast<double>(n);
  for (std::size_t id = 0; id < counts.size(); ++id) {
    if (static_cast<double>(counts[id]) > 2.0 * fair) {
      out.malicious_ids.push_back(static_cast<NodeId>(id));
      out.injected += counts[id];
    }
  }
  return out;
}

double malicious_fraction(std::span<const NodeId> stream,
                          std::span<const NodeId> malicious_ids) {
  if (stream.empty()) return 0.0;
  std::unordered_set<NodeId> bad(malicious_ids.begin(), malicious_ids.end());
  std::uint64_t hits = 0;
  for (NodeId id : stream)
    if (bad.contains(id)) ++hits;
  return static_cast<double>(hits) / static_cast<double>(stream.size());
}

}  // namespace unisamp
