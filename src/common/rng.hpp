// Deterministic pseudo-random number generator (xoshiro256**) used everywhere
// randomness is needed: SEU injection campaigns, testbench stimulus, placer
// annealing. Determinism for a fixed seed keeps experiments reproducible, as
// required of a qualification test suite.
#pragma once

#include <cstdint>

#include "common/hash.hpp"

namespace hermes {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = kGoldenGamma) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    for (auto& word : state_) word = mix64(seed += kGoldenGamma);
  }

  std::uint64_t next_u64() {
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

  /// Uniform in [0, bound); bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection-free bounded draw with negligible bias for our bounds.
    return next_u64() % bound;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw.
  bool next_bool(double probability) { return next_double() < probability; }

  /// Uniform in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

}  // namespace hermes
