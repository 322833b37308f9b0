// The one hashing module: FNV-1a-64 folds and the SplitMix64 mixer. Netlist
// digests, compile-service keys, seeds and every fingerprint the soaks,
// campaigns and benchmark oracles compare are built here, and
// tests/test_hash.cpp pins them: the fold a caller picks (word, le64 or
// bytes) is part of each value's definition.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace hermes {

/// 2^64 / phi: the SplitMix64 state increment.
inline constexpr std::uint64_t kGoldenGamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a-64 accumulator from the offset basis or an explicit start state.
class Fnv64 {
 public:
  static constexpr std::uint64_t kBasis = 14695981039346656037ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr Fnv64() = default;
  constexpr explicit Fnv64(std::uint64_t state) : state_(state) {}

  /// Folds `value` in a single step.
  constexpr Fnv64& word(std::uint64_t value) {
    state_ = (state_ ^ value) * kPrime;
    return *this;
  }

  /// Folds the 8 bytes of `value`, least significant first.
  constexpr Fnv64& le64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) word((value >> (8 * i)) & 0xFF);
    return *this;
  }

  constexpr Fnv64& bytes(std::span<const std::uint8_t> data) {
    for (const std::uint8_t byte : data) word(byte);
    return *this;
  }
  constexpr Fnv64& bytes(std::string_view text) {
    for (const char c : text) word(static_cast<unsigned char>(c));
    return *this;
  }

  [[nodiscard]] constexpr std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kBasis;
};

}  // namespace hermes
