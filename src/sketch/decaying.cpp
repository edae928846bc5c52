#include "sketch/decaying.hpp"

#include <stdexcept>

namespace unisamp {

DecayingCountMinSketch::DecayingCountMinSketch(const CountMinParams& params,
                                               std::uint64_t half_life)
    : CountMinSketch(params), half_life_(half_life) {
  if (half_life == 0)
    throw std::invalid_argument("half life must be positive");
}

void DecayingCountMinSketch::update(std::uint64_t item, std::uint64_t count) {
  CountMinSketch::update(item, count);
  since_decay_ += count;
  if (since_decay_ >= half_life_) decay();
}

std::uint64_t DecayingCountMinSketch::update_and_estimate(std::uint64_t item,
                                                          std::uint64_t count) {
  std::uint64_t est = CountMinSketch::update_and_estimate(item, count);
  since_decay_ += count;
  if (since_decay_ >= half_life_) {
    // Rare slow path: the halving invalidates the fused read, so re-read
    // the (decayed) estimate to stay bit-identical to update();estimate().
    decay();
    est = estimate(item);
  }
  return est;
}

std::uint64_t DecayingCountMinSketch::update_and_estimate_prehashed(
    const std::uint32_t* pre, std::size_t i, std::uint64_t count) {
  std::uint64_t est =
      CountMinSketch::update_and_estimate_prehashed(pre, i, count);
  since_decay_ += count;
  if (since_decay_ >= half_life_) {
    // Same slow path as update_and_estimate: the halving invalidates the
    // fused read; the prehashed indices survive the decay, so the re-read
    // reuses them.  Bit-identical to update(item); estimate(item).
    decay();
    est = estimate_prehashed(pre, i);
  }
  return est;
}

void DecayingCountMinSketch::rekey(const CountMinParams& params) {
  CountMinSketch::rekey(params);
  since_decay_ = 0;
}

void DecayingCountMinSketch::decay() {
  halve();
  since_decay_ = 0;
  ++decays_;
}

}  // namespace unisamp
