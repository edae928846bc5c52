// Online attack detector — an extension built on the streaming substrates.
//
// The paper's sampler survives attacks silently; an operator usually also
// wants to KNOW the input stream is being manipulated.  The two attack
// families of Sec. V leave opposite fingerprints on the input stream:
//  * peak / targeted  — a few ids grab far more than their fair share:
//      heavy hitters appear and normalised entropy drops;
//  * flooding         — many fresh forged ids enter:
//      the distinct-count estimate grows much faster than the established
//      population, while per-id shares stay flat.
// The detector monitors both signals over tumbling windows of the input
// stream with O(heavy_capacity + 2^hll_precision) space — consistent with
// the paper's "little space" design constraint.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "streamstats/entropy.hpp"
#include "stream/types.hpp"

namespace unisamp {

enum class AttackSignal {
  kNone,
  kPeak,       ///< one/few ids vastly over-represented
  kFlooding,   ///< distinct-id population ballooning
};

std::string_view to_string(AttackSignal signal);

struct DetectorConfig {
  std::size_t window = 10000;        ///< ids per tumbling window
  std::size_t heavy_capacity = 64;   ///< SpaceSaving slots per window
  unsigned hll_precision = 12;       ///< distinct counter precision
  /// Peak alarm: top id's share exceeds `peak_factor` times the fair share
  /// (1 / distinct estimate).
  double peak_factor = 8.0;
  /// Flooding alarm: window distinct-count exceeds `flood_factor` times
  /// the baseline established over the first window.
  double flood_factor = 2.0;
  std::uint64_t seed = 1;
};

/// Verdict for one completed window.
struct WindowReport {
  std::uint64_t window_index = 0;
  AttackSignal signal = AttackSignal::kNone;
  double top_share = 0.0;        ///< share of the window's heaviest id
  double fair_share = 0.0;       ///< 1 / distinct estimate
  double distinct = 0.0;         ///< window distinct estimate
  double normalized_entropy = 0.0;
};

class AttackDetector {
 public:
  /// Throws std::invalid_argument for a zero window or heavy_capacity, an
  /// hll_precision outside [4, 18], or a peak/flood factor that is not
  /// finite and > 0.
  explicit AttackDetector(DetectorConfig config);

  /// Feeds one input-stream id; returns a report when a window closes.
  std::optional<WindowReport> observe(NodeId id);

  /// Reports for all closed windows so far.
  const std::vector<WindowReport>& history() const { return history_; }

  /// Highest-severity signal seen so far.
  AttackSignal worst_signal() const;

  const DetectorConfig& config() const { return config_; }

 private:
  WindowReport close_window();

  DetectorConfig config_;
  std::unique_ptr<StreamingEntropy> window_stats_;
  std::uint64_t in_window_ = 0;
  std::uint64_t windows_closed_ = 0;
  double baseline_distinct_ = 0.0;  ///< from the first window
  std::vector<WindowReport> history_;
};

}  // namespace unisamp
