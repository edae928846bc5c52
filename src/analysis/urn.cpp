#include "analysis/urn.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "analysis/stirling.hpp"

namespace unisamp {

OccupancyDistribution::OccupancyDistribution(std::uint64_t k)
    : k_(k), balls_(1), pmf_(1, 1.0) {
  if (k == 0) throw std::invalid_argument("need at least one urn");
}

void OccupancyDistribution::step() {
  const std::uint64_t next_support =
      std::min<std::uint64_t>(k_, balls_ + 1);
  std::vector<double> next(next_support, 0.0);
  const double kd = static_cast<double>(k_);
  for (std::uint64_t i = 1; i <= next_support; ++i) {
    double p = 0.0;
    // arrive from i-1 occupied urns (new urn hit)
    if (i >= 2 && i - 1 <= pmf_.size())
      p += (kd - static_cast<double>(i) + 1.0) / kd * pmf_[i - 2];
    // stay at i occupied urns (collision)
    if (i <= pmf_.size()) p += static_cast<double>(i) / kd * pmf_[i - 1];
    next[i - 1] = p;
  }
  pmf_.swap(next);
  ++balls_;
}

double OccupancyDistribution::pmf(std::uint64_t i) const {
  if (i == 0 || i > pmf_.size()) return 0.0;
  return pmf_[i - 1];
}

double OccupancyDistribution::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < pmf_.size(); ++i)
    m += static_cast<double>(i + 1) * pmf_[i];
  return m;
}

double occupancy_pmf_closed_form(std::uint64_t k, std::uint64_t l,
                                 std::uint64_t i) {
  if (i == 0 || i > std::min(k, l)) return 0.0;
  const double logp =
      log_stirling2(static_cast<unsigned>(l), static_cast<unsigned>(i)) +
      std::lgamma(static_cast<double>(k) + 1.0) -
      static_cast<double>(l) * std::log(static_cast<double>(k)) -
      std::lgamma(static_cast<double>(k - i) + 1.0);
  return std::exp(logp);
}

std::uint64_t targeted_attack_effort(std::uint64_t k, std::uint64_t s,
                                     double eta_t) {
  const double etas[] = {eta_t};
  return targeted_attack_efforts(k, s, etas)[0];
}

std::vector<std::uint64_t> targeted_attack_efforts(
    std::uint64_t k, std::uint64_t s, std::span<const double> etas) {
  if (s == 0) throw std::invalid_argument("s must be positive");
  for (double e : etas)
    if (!(e > 0.0 && e < 1.0))  // NaN fails too
      throw std::invalid_argument("eta_t must be in (0, 1)");
  if (k == 0) throw std::invalid_argument("need at least one urn");
  // L_{k,s} = inf{ l >= 2 : (P{N_l = N_{l-1}})^s > 1 - eta_T } with
  // P{N_l = N_{l-1}} = E[N_{l-1}]/k.  Only the MEAN occupancy is needed and
  // it satisfies the exact recursion E[N_l] = E[N_{l-1}](1 - 1/k) + 1, so a
  // scalar evolution suffices (O(L) total instead of O(k L)).
  std::vector<std::uint64_t> out(etas.size(), 0);
  std::size_t remaining = etas.size();
  const double kd = static_cast<double>(k);
  double mean = 1.0;  // E[N_1]
  for (std::uint64_t l = 2; remaining > 0; ++l) {
    const double collide_pow_s =
        std::pow(mean / kd, static_cast<double>(s));  // (E[N_{l-1}]/k)^s
    for (std::size_t i = 0; i < etas.size(); ++i) {
      if (out[i] == 0 && collide_pow_s > 1.0 - etas[i]) {
        out[i] = l;
        --remaining;
      }
    }
    mean = mean * (1.0 - 1.0 / kd) + 1.0;  // advance to E[N_l]
    if (l > 100'000'000ULL)
      throw std::runtime_error("targeted_attack_effort did not converge");
  }
  return out;
}

std::uint64_t flooding_attack_effort(std::uint64_t k, double eta_f) {
  const double etas[] = {eta_f};
  return flooding_attack_efforts(k, etas)[0];
}

std::vector<std::uint64_t> flooding_attack_efforts(
    std::uint64_t k, std::span<const double> etas) {
  for (double e : etas)
    if (!(e > 0.0 && e < 1.0))  // NaN fails too
      throw std::invalid_argument("eta_f must be in (0, 1)");
  std::vector<std::uint64_t> out(etas.size(), 0);
  if (k == 1) {  // single urn is filled by the first ball
    std::fill(out.begin(), out.end(), 1);
    return out;
  }
  std::size_t remaining = etas.size();
  // sum_{i=k}^{l} P{U_k = i} = P{N_l = k}; track the occupancy directly.
  OccupancyDistribution occ(k);  // N_1
  std::uint64_t l = 1;
  while (remaining > 0) {
    if (l >= k) {
      const double p_all = occ.all_occupied_probability();
      for (std::size_t i = 0; i < etas.size(); ++i) {
        if (out[i] == 0 && p_all > 1.0 - etas[i]) {
          out[i] = l;
          --remaining;
        }
      }
    }
    occ.step();
    ++l;
    if (l > 100'000'000ULL)
      throw std::runtime_error("flooding_attack_effort did not converge");
  }
  return out;
}

double coupon_collector_cdf(std::uint64_t k, std::uint64_t l) {
  OccupancyDistribution occ(k);
  while (occ.balls() < l) occ.step();
  return occ.all_occupied_probability();
}

double coupon_collector_mean(std::uint64_t k) {
  double h = 0.0;
  for (std::uint64_t i = 1; i <= k; ++i) h += 1.0 / static_cast<double>(i);
  return static_cast<double>(k) * h;
}

}  // namespace unisamp
