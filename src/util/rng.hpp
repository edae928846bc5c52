// Deterministic random number generation for the whole library.
//
// Every randomized component in unisamp takes an explicit seed so that
// simulations, tests and benchmarks are reproducible.  The paper's model
// (Sec. III-B) requires that "the adversary has not access to the local
// random coins": modelling-wise this means the seeds of correct nodes are
// private inputs, which we emulate by deriving per-component seeds from a
// master seed through SplitMix64.
#pragma once

#include <cstdint>
#include <limits>
#include <random>

namespace unisamp {

/// SplitMix64 — tiny, high-quality 64-bit mixer.  Used both as a stream
/// splitter (derive independent seeds from one master seed) and as a cheap
/// stateless hash of 64-bit values.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Stateless mix of a single value (useful as a seed deriver).
  static constexpr std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

 private:
  std::uint64_t state_;
};

/// The repo-wide checksum convention: start from kChecksumSeed and fold
/// each observed value with checksum_fold.  One definition, so figure
/// sidecars, bench kernels and state checksums stay comparable — two
/// folds over the same observations always produce the same checksum.
inline constexpr std::uint64_t kChecksumSeed = 0x9E3779B97F4A7C15ULL;

constexpr std::uint64_t checksum_fold(std::uint64_t acc,
                                      std::uint64_t v) noexcept {
  return SplitMix64::mix(acc ^ v);
}

/// xoshiro256** — fast, high-quality PRNG; satisfies UniformRandomBitGenerator
/// so it can drive std::<distribution> objects.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) — Lemire's multiply-shift with rejection
  /// to remove modulo bias.  Inline: the samplers draw one per emitted id,
  /// and the rejection loop is cold (it triggers with probability
  /// (2^64 mod bound) / 2^64, essentially never for small bounds).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) [[unlikely]] {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return next_double() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Derives a child seed for a named sub-component; deterministic in
/// (master_seed, component_index).
std::uint64_t derive_seed(std::uint64_t master_seed,
                          std::uint64_t component_index) noexcept;

}  // namespace unisamp
