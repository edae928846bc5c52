#include "core/omniscient_sampler.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace unisamp {

OmniscientSampler::OmniscientSampler(std::size_t c,
                                     std::vector<double> probabilities,
                                     std::uint64_t seed)
    : c_(c), p_(std::move(probabilities)), members_(c), rng_(seed) {
  if (c_ == 0) throw std::invalid_argument("memory capacity must be positive");
  if (p_.empty()) throw std::invalid_argument("empty probability vector");
  p_min_ = p_[0];
  for (double prob : p_) {
    if (prob <= 0.0)
      throw std::invalid_argument("occurrence probabilities must be > 0");
    p_min_ = std::min(p_min_, prob);
  }
  gamma_.reserve(c_);
}

double OmniscientSampler::insertion_probability(NodeId id) const {
  if (id >= p_.size()) throw std::out_of_range("id outside known population");
  return p_min_ / p_[id];
}

NodeId OmniscientSampler::process(NodeId id) { return process_one(id); }

void OmniscientSampler::process_stream(std::span<const NodeId> input,
                                       Stream& output) {
  output.reserve(output.size() + input.size());
  for (const NodeId id : input) output.push_back(process_one(id));
}

NodeId OmniscientSampler::process_one(NodeId id) {
  if (id >= p_.size()) throw std::out_of_range("id outside known population");
  if (!contains(id)) {
    if (gamma_.size() < c_) {
      gamma_.push_back(id);
      members_.insert(id);
    } else if (rng_.bernoulli(insertion_probability(id))) {
      // Victim k chosen with probability r_k / sum_{l in Gamma} r_l; the
      // paper's r_j = 1/n makes this a uniform pick over Gamma.
      const std::size_t victim = rng_.next_below(gamma_.size());
      members_.erase(gamma_[victim]);
      gamma_[victim] = id;
      members_.insert(id);
    }
  }
  return sample();
}

NodeId OmniscientSampler::sample() {
  if (gamma_.empty())
    throw std::logic_error("sample() before any id was processed");
  return gamma_[rng_.next_below(gamma_.size())];
}

}  // namespace unisamp
