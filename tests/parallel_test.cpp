// Tests of the deterministic thread-pool trial runner (util/parallel).
//
// The load-bearing property is the determinism contract: when each trial
// derives its randomness from the trial index alone, the aggregate returned
// by run_trials is bit-identical for ANY thread count — the paper's 100-trial
// averages (Sec. VI-A) must not depend on how many cores the machine has.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace unisamp {
namespace {

/// Restores automatic thread resolution even if a test fails mid-way.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_trial_threads(0); }
};

/// A trial body with per-index randomness, shaped like the real benches:
/// seed the RNG from the trial index, draw a few values, return a vector.
std::vector<double> trial_body(std::uint64_t master_seed, std::size_t t) {
  Xoshiro256 rng(derive_seed(master_seed, t));
  std::vector<double> values(8);
  for (double& v : values) v = rng.next_double();
  return values;
}

TEST(ParallelTest, RunTrialsReturnsResultsInTrialOrder) {
  ThreadCountGuard guard;
  set_trial_threads(4);
  const auto results =
      run_trials(100, [](std::size_t t) { return t * t; });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t t = 0; t < results.size(); ++t)
    EXPECT_EQ(results[t], t * t);
}

TEST(ParallelTest, SameSeedBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  constexpr std::uint64_t kSeed = 0xA5CEA03E;
  constexpr std::size_t kTrials = 64;

  set_trial_threads(1);
  const auto serial = run_trials(
      kTrials, [](std::size_t t) { return trial_body(kSeed, t); });

  for (std::size_t threads : {2u, 3u, 4u, 7u, 16u}) {
    set_trial_threads(threads);
    const auto parallel = run_trials(
        kTrials, [](std::size_t t) { return trial_body(kSeed, t); });
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (std::size_t t = 0; t < kTrials; ++t) {
      ASSERT_EQ(parallel[t].size(), serial[t].size());
      for (std::size_t i = 0; i < serial[t].size(); ++i) {
        // Bit-identical, not approximately equal: each slot is written by
        // exactly one trial, so no float non-associativity can creep in.
        EXPECT_EQ(parallel[t][i], serial[t][i])
            << "trial " << t << " value " << i << " with " << threads
            << " threads";
      }
    }
  }
}

TEST(ParallelTest, AggregateInTrialOrderMatchesSerialAccumulation) {
  ThreadCountGuard guard;
  constexpr std::uint64_t kSeed = 77;
  constexpr std::size_t kTrials = 50;
  constexpr std::size_t kBins = 16;

  // Serial reference: the pre-refactor accumulation order.
  std::vector<double> reference(kBins, 0.0);
  for (std::size_t t = 0; t < kTrials; ++t) {
    const auto d = trial_body(kSeed, t);
    for (std::size_t i = 0; i < kBins && i < d.size(); ++i)
      reference[i] += d[i];
  }

  set_trial_threads(8);
  const auto per_trial = run_trials(
      kTrials, [](std::size_t t) { return trial_body(kSeed, t); });
  std::vector<double> aggregated(kBins, 0.0);
  for (const auto& d : per_trial)
    for (std::size_t i = 0; i < kBins && i < d.size(); ++i)
      aggregated[i] += d[i];

  for (std::size_t i = 0; i < kBins; ++i)
    EXPECT_EQ(aggregated[i], reference[i]) << "bin " << i;
}

TEST(ParallelTest, EveryIndexRunsExactlyOnce) {
  ThreadCountGuard guard;
  set_trial_threads(6);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for_index(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelTest, ZeroTrialsIsANoOp) {
  const auto results = run_trials(0, [](std::size_t t) { return t; });
  EXPECT_TRUE(results.empty());
  parallel_for_index(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelTest, ExceptionsPropagateToCaller) {
  ThreadCountGuard guard;
  set_trial_threads(4);
  EXPECT_THROW(
      parallel_for_index(32,
                         [](std::size_t i) {
                           if (i == 17) throw std::runtime_error("trial 17");
                         }),
      std::runtime_error);
}

// When several indices throw, the caller sees the LOWEST index's exception,
// not whichever was thrown first in wall-clock time: index 7 throws at
// once, index 2 only after a sleep, and index 2 must win at every thread
// count.
TEST(ParallelTest, LowestFailingIndexIsRethrown) {
  ThreadCountGuard guard;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    set_trial_threads(threads);
    try {
      parallel_for_index(8, [](std::size_t i) {
        if (i == 7) throw std::runtime_error("index 7");
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("index 2");
        }
      });
      ADD_FAILURE() << "no exception with " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "index 2") << threads << " threads";
    }
  }
}

TEST(ParallelTest, ThreadCountOverrideAndReset) {
  ThreadCountGuard guard;
  set_trial_threads(3);
  EXPECT_EQ(trial_threads(), 3u);
  set_trial_threads(0);
  EXPECT_GE(trial_threads(), 1u);
}

/// Saves and restores UNISAMP_THREADS (the CI matrix exports it, so these
/// tests must not leak their values into later suites in this process).
class EnvVarGuard {
 public:
  EnvVarGuard() {
    const char* value = std::getenv("UNISAMP_THREADS");
    if (value != nullptr) saved_ = value;
  }
  ~EnvVarGuard() {
    if (saved_.has_value())
      setenv("UNISAMP_THREADS", saved_->c_str(), 1);
    else
      unsetenv("UNISAMP_THREADS");
  }

 private:
  std::optional<std::string> saved_;
};

std::size_t threads_with_env(const char* value) {
  setenv("UNISAMP_THREADS", value, 1);
  return trial_threads();
}

// The documented UNISAMP_THREADS contract (parallel.hpp): positive values
// honoured, values above 1024 CLAMPED to 1024 (not ignored), leading
// whitespace tolerated, and zero / negative / non-numeric values ignored
// in favour of automatic resolution.
TEST(ParallelTest, EnvThreadCountBoundaries) {
  ThreadCountGuard guard;
  EnvVarGuard env_guard;
  set_trial_threads(0);  // env var only matters without an override

  unsetenv("UNISAMP_THREADS");
  const std::size_t automatic = trial_threads();
  EXPECT_GE(automatic, 1u);

  EXPECT_EQ(threads_with_env("8"), 8u);
  EXPECT_EQ(threads_with_env(" \t8"), 8u);  // leading whitespace tolerated
  EXPECT_EQ(threads_with_env("1024"), 1024u);  // cap itself passes through
  EXPECT_EQ(threads_with_env("1025"), 1024u);  // above the cap: clamped
  EXPECT_EQ(threads_with_env("999999999999999999999"), 1024u);  // ERANGE too

  // Rejected values fall back to automatic resolution, never to 0 threads.
  EXPECT_EQ(threads_with_env("0"), automatic);
  EXPECT_EQ(threads_with_env("-1"), automatic);
  EXPECT_EQ(threads_with_env("abc"), automatic);
  EXPECT_EQ(threads_with_env("8abc"), automatic);  // trailing junk rejected
  EXPECT_EQ(threads_with_env(""), automatic);
}

TEST(ParallelTest, OverrideWinsOverEnv) {
  ThreadCountGuard guard;
  EnvVarGuard env_guard;
  setenv("UNISAMP_THREADS", "16", 1);
  set_trial_threads(3);
  EXPECT_EQ(trial_threads(), 3u);
  set_trial_threads(0);
  EXPECT_EQ(trial_threads(), 16u);
}

// set_trial_threads / trial_threads / parallel_for_index may interleave
// freely from different threads: the worker count is latched once at entry,
// so a concurrent retarget must never lose, duplicate, or crash an index.
// (The TSan CI leg runs this same test under -fsanitize=thread.)
TEST(ParallelTest, ConcurrentRetargetingKeepsEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  constexpr std::size_t kCount = 512;
  constexpr int kRounds = 20;

  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    std::uint64_t x = 1;
    while (!stop.load()) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      set_trial_threads(1 + (x >> 60));  // 1..8, including the serial path
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      const std::size_t t = trial_threads();
      if (t < 1 || t > 1024) std::abort();  // impossible value observed
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for_index(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
  }

  stop.store(true);
  hammer.join();
  reader.join();
}

}  // namespace
}  // namespace unisamp
