#include "core/attack_detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace unisamp {

std::string_view to_string(AttackSignal signal) {
  switch (signal) {
    case AttackSignal::kNone:
      return "none";
    case AttackSignal::kPeak:
      return "peak/targeted";
    case AttackSignal::kFlooding:
      return "flooding";
  }
  return "unknown";
}

AttackDetector::AttackDetector(DetectorConfig config)
    : config_(config),
      window_stats_(std::make_unique<StreamingEntropy>(
          config.heavy_capacity, config.hll_precision, config.seed)) {
  if (config_.window == 0)
    throw std::invalid_argument("window must be positive");
  // !(x > 0) also rejects NaN; isinf rejects the other non-threshold.
  if (!(config_.peak_factor > 0.0) || std::isinf(config_.peak_factor))
    throw std::invalid_argument("peak_factor must be finite and > 0");
  if (!(config_.flood_factor > 0.0) || std::isinf(config_.flood_factor))
    throw std::invalid_argument("flood_factor must be finite and > 0");
}

std::optional<WindowReport> AttackDetector::observe(NodeId id) {
  window_stats_->add(id);
  if (++in_window_ < config_.window) return std::nullopt;
  return close_window();
}

WindowReport AttackDetector::close_window() {
  WindowReport report;
  report.window_index = windows_closed_;
  report.distinct = window_stats_->distinct_estimate();
  report.normalized_entropy = window_stats_->normalized_estimate();
  report.fair_share = report.distinct > 0.0 ? 1.0 / report.distinct : 0.0;

  const auto entries = window_stats_->heavy_hitters().entries();
  if (!entries.empty()) {
    const double guaranteed =
        static_cast<double>(entries.front().count - entries.front().error);
    report.top_share =
        guaranteed / static_cast<double>(config_.window);
  }

  if (windows_closed_ == 0) {
    baseline_distinct_ = report.distinct;
  } else if (baseline_distinct_ > 0.0 &&
             report.distinct > config_.flood_factor * baseline_distinct_) {
    report.signal = AttackSignal::kFlooding;
  }
  if (report.signal == AttackSignal::kNone &&
      report.top_share > config_.peak_factor * report.fair_share) {
    report.signal = AttackSignal::kPeak;
  }

  history_.push_back(report);
  ++windows_closed_;
  in_window_ = 0;
  window_stats_ = std::make_unique<StreamingEntropy>(
      config_.heavy_capacity, config_.hll_precision,
      config_.seed + windows_closed_);
  return report;
}

AttackSignal AttackDetector::worst_signal() const {
  AttackSignal worst = AttackSignal::kNone;
  for (const auto& r : history_) {
    if (r.signal == AttackSignal::kFlooding) return AttackSignal::kFlooding;
    if (r.signal == AttackSignal::kPeak) worst = AttackSignal::kPeak;
  }
  return worst;
}

}  // namespace unisamp
