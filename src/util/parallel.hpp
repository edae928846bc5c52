// Deterministic thread-pool trial runner.
//
// The paper's methodology averages many independent trials of the same
// experiment (Sec. VI-A: "conducted and averaged 100 trials"), and the
// network experiment measures every correct node independently — both are
// embarrassingly parallel.  `run_trials` runs a per-trial function across a
// pool of worker threads and returns the results indexed by trial, so any
// aggregation done in trial order afterwards is bit-identical to a serial
// run regardless of thread count or scheduling.
//
// Determinism contract: the per-trial function must derive all of its
// randomness from the trial index alone (e.g. `derive_seed(seed, t)`) and
// must not touch shared mutable state.  Under that contract the output of
// `run_trials` is a pure function of (n, fn) — threads only change wall
// clock, never results.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace unisamp {

/// Positive-count environment knob, one policy for every such variable so
/// one value cannot mean different counts in different layers.  Leading
/// spaces/tabs are tolerated; the rest must be digits only (util/parse.hpp).
/// Values above `max` (overflowing ones included) CLAMP to `max`: the user
/// asked for "many".  Unset, zero, negative or non-numeric values return
/// `fallback`.
std::size_t env_count(const char* name, std::size_t fallback,
                      std::size_t max);

/// Number of worker threads `parallel_for_index` uses.  Resolution order:
/// the last `set_trial_threads` value if non-zero, else the
/// UNISAMP_THREADS environment variable read by `env_count` with a cap of
/// 1024, else `std::thread::hardware_concurrency()` (at least 1).
std::size_t trial_threads();

/// Overrides the worker count (0 restores automatic resolution).
void set_trial_threads(std::size_t count);

/// Runs `body(i)` for every i in [0, count) across `trial_threads()`
/// workers, the calling thread among them (no thread spawns when a single
/// worker suffices).  Indices are handed out by an atomic counter, so
/// `body` must be safe to call concurrently for distinct indices.  Every
/// index runs even when others throw; once all have finished, the
/// exception of the LOWEST failing index is rethrown — the same one for
/// any thread count or scheduling.
void parallel_for_index(std::size_t count,
                        const std::function<void(std::size_t)>& body);

/// Runs `fn(t)` for trials t in [0, n) and returns the results in trial
/// order.  Each result slot is written only by the trial that owns it, so
/// under the determinism contract above the returned vector is identical
/// for any thread count.  The result type must be default-constructible.
template <typename Fn>
auto run_trials(std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  // vector<bool> packs slots into shared words — concurrent writes to
  // distinct trials would race.  Return std::uint8_t or a struct instead.
  static_assert(!std::is_same_v<Result, bool>,
                "run_trials cannot return bool (vector<bool> slot writes "
                "are not thread-safe)");
  std::vector<Result> results(n);
  parallel_for_index(n, [&](std::size_t t) { results[t] = fn(t); });
  return results;
}

}  // namespace unisamp
