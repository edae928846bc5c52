#include "stream/trace_replay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stream/generators.hpp"

namespace unisamp {

std::string_view to_string(TraceReplayConfig::Kind kind) {
  switch (kind) {
    case TraceReplayConfig::Kind::kTraceFile:
      return "trace-file";
    case TraceReplayConfig::Kind::kDiurnal:
      return "diurnal";
    case TraceReplayConfig::Kind::kFlashCrowd:
      return "flash-crowd";
    case TraceReplayConfig::Kind::kDriftingHotSet:
      return "drifting-hot-set";
  }
  return "?";
}

void validate(const TraceReplayConfig& config) {
  if (config.ids_per_round == 0)
    throw std::invalid_argument("trace replay: ids_per_round must be > 0");
  if (config.kind == TraceReplayConfig::Kind::kTraceFile) {
    if (config.path.empty())
      throw std::invalid_argument("trace replay: file kind needs a path");
    return;
  }
  // Generator kinds share the Zipf base distribution.
  if (config.domain == 0)
    throw std::invalid_argument("trace replay: domain must be > 0");
  // !(x >= 0) also rejects NaN.
  if (!(config.zipf_alpha >= 0.0))
    throw std::invalid_argument(
        "trace replay: zipf_alpha must be finite and >= 0");
  switch (config.kind) {
    case TraceReplayConfig::Kind::kDiurnal:
      if (config.period < 2)
        throw std::invalid_argument("trace replay: diurnal period must be >= 2");
      if (!(config.amplitude >= 0.0 && config.amplitude <= 1.0))
        throw std::invalid_argument(
            "trace replay: diurnal amplitude outside [0, 1]");
      break;
    case TraceReplayConfig::Kind::kFlashCrowd:
      if (!(config.flash_multiplier >= 1.0))
        throw std::invalid_argument(
            "trace replay: flash_multiplier must be finite and >= 1");
      if (!(config.flash_share >= 0.0 && config.flash_share <= 1.0))
        throw std::invalid_argument(
            "trace replay: flash_share outside [0, 1]");
      if (config.flash_hotset == 0 || config.flash_hotset > config.domain)
        throw std::invalid_argument(
            "trace replay: flash_hotset must be in [1, domain]");
      break;
    case TraceReplayConfig::Kind::kDriftingHotSet:
      if (config.drift_every == 0)
        throw std::invalid_argument(
            "trace replay: drift_every must be >= 1");
      break;
    case TraceReplayConfig::Kind::kTraceFile:
      break;  // handled above
  }
}

TraceReplaySource::TraceReplaySource(TraceReplayConfig config)
    : config_(std::move(config)),
      rng_(derive_seed(config_.seed, 0x7ACE)) {
  validate(config_);
  if (config_.kind == TraceReplayConfig::Kind::kTraceFile) {
    file_.emplace(config_.path);
  } else {
    const std::vector<double> weights =
        zipf_weights(config_.domain, config_.zipf_alpha);
    zipf_.emplace(weights);
  }
}

std::size_t TraceReplaySource::round_volume(std::size_t round) const {
  const double base = static_cast<double>(config_.ids_per_round);
  switch (config_.kind) {
    case TraceReplayConfig::Kind::kTraceFile:
      return config_.ids_per_round;
    case TraceReplayConfig::Kind::kDiurnal: {
      // Triangle wave in [0, 1] over `period` rounds: pure IEEE divide /
      // multiply (no libm), so the volume sequence is machine-independent.
      const std::size_t phase = round % config_.period;
      const std::size_t dist = std::min(phase, config_.period - phase);
      const double wave = static_cast<double>(dist) /
                          (static_cast<double>(config_.period) / 2.0);
      return static_cast<std::size_t>(std::llround(
          base * (1.0 - config_.amplitude + config_.amplitude * wave)));
    }
    case TraceReplayConfig::Kind::kFlashCrowd: {
      const bool in_flash = round >= config_.flash_start &&
                            round < config_.flash_start + config_.flash_rounds;
      if (!in_flash) return config_.ids_per_round;
      return static_cast<std::size_t>(
          std::llround(base * config_.flash_multiplier));
    }
    case TraceReplayConfig::Kind::kDriftingHotSet:
      return config_.ids_per_round;
  }
  return config_.ids_per_round;
}

std::size_t TraceReplaySource::next_round(Stream& out) {
  const std::size_t round = rounds_++;
  std::size_t produced = 0;
  if (config_.kind == TraceReplayConfig::Kind::kTraceFile) {
    const std::size_t first = out.size();
    produced = file_->read(out, config_.ids_per_round);
    for (std::size_t i = first; i < out.size(); ++i) out[i] += config_.id_offset;
    total_ += produced;
    return produced;
  }
  const std::size_t volume = round_volume(round);
  const bool in_flash =
      config_.kind == TraceReplayConfig::Kind::kFlashCrowd &&
      round >= config_.flash_start &&
      round < config_.flash_start + config_.flash_rounds;
  // Drifting: the whole distribution rotates through the id space, one
  // epoch every drift_every rounds — yesterday's heavy hitters cool off as
  // fresh ids inherit the Zipf head.
  const NodeId shift =
      config_.kind == TraceReplayConfig::Kind::kDriftingHotSet
          ? static_cast<NodeId>((round / config_.drift_every) *
                                config_.drift_step % config_.domain)
          : 0;
  for (std::size_t i = 0; i < volume; ++i) {
    NodeId id;
    if (in_flash && rng_.bernoulli(config_.flash_share)) {
      // The crowd slams the hottest objects: uniform over the Zipf head.
      id = static_cast<NodeId>(rng_.next_below(config_.flash_hotset));
    } else {
      id = static_cast<NodeId>(zipf_->sample(rng_));
    }
    id = (id + shift) % static_cast<NodeId>(config_.domain);
    out.push_back(id + config_.id_offset);
    ++produced;
  }
  total_ += produced;
  return produced;
}

}  // namespace unisamp
