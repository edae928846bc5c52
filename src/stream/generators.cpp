#include "stream/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

namespace unisamp {

std::vector<double> uniform_weights(std::size_t n) {
  return std::vector<double>(n, 1.0);
}

std::vector<double> zipf_weights(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("empty domain");
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = std::pow(static_cast<double>(i + 1), -alpha);
  return w;
}

std::vector<double> truncated_poisson_weights(std::size_t n, double lambda) {
  if (n == 0) throw std::invalid_argument("empty domain");
  if (lambda <= 0.0) throw std::invalid_argument("lambda must be positive");
  // log pmf(i) = i*log(lambda) - lambda - lgamma(i+1); normalise by the max
  // to keep exp() in range.
  std::vector<double> logw(n);
  double maxlog = -1e300;
  for (std::size_t i = 0; i < n; ++i) {
    logw[i] = static_cast<double>(i) * std::log(lambda) - lambda -
              std::lgamma(static_cast<double>(i) + 1.0);
    maxlog = std::max(maxlog, logw[i]);
  }
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = std::exp(logw[i] - maxlog);
  return w;
}

WeightedStreamGenerator::WeightedStreamGenerator(
    std::span<const double> weights, std::uint64_t seed)
    : sampler_(weights), rng_(seed) {}

NodeId WeightedStreamGenerator::next() {
  return static_cast<NodeId>(sampler_.sample(rng_));
}

Stream WeightedStreamGenerator::take(std::size_t m) {
  Stream s;
  s.reserve(m);
  for (std::size_t i = 0; i < m; ++i) s.push_back(next());
  return s;
}

Stream exact_stream(std::span<const std::uint64_t> counts,
                    std::uint64_t seed) {
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  Stream s;
  s.reserve(total);
  for (std::size_t id = 0; id < counts.size(); ++id)
    for (std::uint64_t rep = 0; rep < counts[id]; ++rep)
      s.push_back(static_cast<NodeId>(id));
  Xoshiro256 rng(seed);
  for (std::size_t i = s.size(); i > 1; --i)
    std::swap(s[i - 1], s[rng.next_below(i)]);
  return s;
}

std::vector<std::uint64_t> peak_attack_counts(std::size_t n,
                                              std::size_t peak_id,
                                              std::uint64_t peak_count,
                                              std::uint64_t base_count) {
  if (peak_id >= n) throw std::invalid_argument("peak id out of domain");
  std::vector<std::uint64_t> counts(n, base_count);
  counts[peak_id] = peak_count;
  return counts;
}

std::vector<std::uint64_t> counts_from_weights(std::span<const double> weights,
                                               std::uint64_t m,
                                               std::uint64_t min_count) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("empty weight vector");
  double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) throw std::invalid_argument("all weights are zero");
  std::vector<std::uint64_t> counts(n);
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double share = weights[i] / total * static_cast<double>(m);
    counts[i] = std::max<std::uint64_t>(
        min_count, static_cast<std::uint64_t>(std::llround(share)));
    assigned += counts[i];
  }
  // Rebalance rounding drift onto the heaviest id so the stream length stays
  // close to m without dropping any id below min_count.
  const std::size_t heaviest = static_cast<std::size_t>(std::distance(
      weights.begin(), std::max_element(weights.begin(), weights.end())));
  if (assigned < m) {
    counts[heaviest] += m - assigned;
  } else if (assigned > m) {
    const std::uint64_t excess = assigned - m;
    const std::uint64_t removable =
        counts[heaviest] > min_count ? counts[heaviest] - min_count : 0;
    counts[heaviest] -= std::min(excess, removable);
  }
  return counts;
}

}  // namespace unisamp
