// Deterministic pseudo-random number generation.
//
// Two small, fast, well-studied generators: SplitMix64 (for seeding and
// cheap hole-filling) and xoshiro256++ (the workhorse).  Both are
// header-only and allocation-free so allocators can embed them by value.
// Determinism matters: every experiment in EXPERIMENTS.md is reproducible
// from (seed, eps, workload) alone.
#pragma once

#include <array>
#include <cstdint>

#include "util/check.h"
#include "util/types.h"

namespace memreal {

/// SplitMix64's output finalizer: a full-avalanche 64-bit mix.  Also the
/// id hash of FlatIdMap and the arena's per-item pattern seed, where
/// adjacent ids must land on unrelated values.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: 64-bit state, passes BigCrush when used as a stream.
/// Primarily used to expand a single seed into xoshiro's 256-bit state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return mix64(state_ += 0x9e3779b97f4a7c15ULL); }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ by Blackman & Vigna.  Fast, 256-bit state, equidistributed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
    // Avoid the all-zero state (probability ~2^-256, but be exact).
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) using Lemire's multiply-shift rejection method.
  std::uint64_t next_below(std::uint64_t bound) {
    MEMREAL_CHECK(bound > 0);
    // 128-bit multiply; gcc/clang support __uint128_t on all our targets.
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the closed range [lo, hi].
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) {
    MEMREAL_CHECK(lo <= hi);
    return lo + next_below(hi - lo + 1);
  }

  /// Uniform Tick in [lo, hi) — half-open, used for continuous thresholds
  /// such as the waste-recovery draw T <- (eps/2, eps).
  Tick next_tick_in(Tick lo, Tick hi) {
    MEMREAL_CHECK(lo < hi);
    return lo + next_below(hi - lo);
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Fisher–Yates shuffle.
  template <typename Vec>
  void shuffle(Vec& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace memreal
