// Scenario type of the benchmark harness.
//
// A Scenario is a named, self-contained unit of measured work: the runner
// hands it an item budget (how much work to do — full or --quick scale) and
// a seed, and it returns how many items it actually processed plus a
// checksum folded over its observable output.  The checksum is the
// harness's determinism guard: the runner re-runs every scenario with the
// same seed for each repetition and refuses to report timings whose
// checksums disagree, because a nondeterministic scenario cannot be
// regression-tracked (its work varies, not just its wall clock).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace unisamp::bench_harness {

/// What one repetition of a scenario did.
struct ScenarioResult {
  std::uint64_t items = 0;     ///< units of work processed (for ns/op)
  std::uint64_t checksum = 0;  ///< fold of observable output (determinism)
};

/// The checksum convention every scenario uses (util/rng.hpp).
using unisamp::checksum_fold;
using unisamp::kChecksumSeed;

/// Folds a whole sequence (e.g. a sampler's output stream).
constexpr std::uint64_t checksum_of(std::span<const std::uint64_t> values) {
  std::uint64_t acc = kChecksumSeed;
  for (const std::uint64_t v : values) acc = checksum_fold(acc, v);
  return acc;
}

struct Scenario {
  std::string name;         ///< slash-scoped ("sketch/count_min_update")
  std::string description;  ///< one line (a figure's is its sidecar's)
  std::uint64_t full_items = 0;   ///< item budget of a normal run
  std::uint64_t quick_items = 0;  ///< item budget under --quick (CI smoke)
  /// One repetition: do `items` worth of work, deriving all randomness from
  /// `seed`.  Setup that should not be timed belongs in captured state
  /// built before the run (the runner times the whole call).
  std::function<ScenarioResult(std::uint64_t items, std::uint64_t seed)> run;
};

}  // namespace unisamp::bench_harness
