#pragma once
// Deterministic pseudo-random number generation for workload synthesis.
//
// A small xoshiro256** implementation: fast, seedable, and independent of
// the standard library's unspecified distribution implementations, so
// generated workloads are bit-identical across platforms and compilers.

#include <cstdint>

namespace netddt::sim {

/// SplitMix64 step: advance by the golden-ratio increment, then apply the
/// finalizer. Turns any 64-bit key into a well-distributed value.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift reduction.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace netddt::sim
