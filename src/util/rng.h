// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of rtmplace (trace generators, the genetic
// algorithm, random-walk search) draw from Rng so that a fixed seed yields a
// bit-identical run on every platform. The generator is xoshiro256**, seeded
// via splitmix64; both are public-domain algorithms by Blackman/Vigna.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace rtmp::util {

/// Mixes a 64-bit value into a well-distributed 64-bit output (splitmix64
/// finalizer). Used for seeding and for hashing benchmark names to seeds.
[[nodiscard]] std::uint64_t SplitMix64(std::uint64_t& state) noexcept;

/// Stable 64-bit hash of a string (FNV-1a folded through splitmix64).
/// Used to derive per-benchmark seeds from benchmark names.
[[nodiscard]] std::uint64_t HashString(std::string_view text) noexcept;

/// xoshiro256** deterministic PRNG.
///
/// Satisfies the std::uniform_random_bit_generator concept so it can also be
/// plugged into <random> distributions if ever needed, though the member
/// helpers below are preferred for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit output. Inline (below) so the per-draw loops of
  /// Shuffle and the random walk compile without a call.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  ///
  /// Lemire's multiply-shift draw with rejection: the high word of
  /// x * bound is the result unless the low word falls below
  /// threshold = 2^64 mod bound, which would bias it. Since threshold <
  /// bound, a low word >= bound is always accepted, and the 64-bit
  /// division that computes threshold runs only when the low word is
  /// below bound (probability bound / 2^64). Accepts and rejects exactly
  /// the draws the always-divide form does, so the stream is unchanged.
  [[nodiscard]] std::uint64_t NextBelow(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi. The full
  /// int64 range returns one raw draw (its width 2^64 has no uint64).
  [[nodiscard]] std::int64_t NextInRange(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double NextDouble() noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  [[nodiscard]] bool NextBool(double p) noexcept;

  /// Index drawn proportionally to the non-negative weights. Requires a
  /// non-empty span with a positive total weight.
  [[nodiscard]] std::size_t NextWeighted(
      std::span<const double> weights) noexcept;

  /// Geometric-like draw: number of failures before first success with
  /// probability p in (0,1]; capped at `cap`.
  [[nodiscard]] std::uint64_t NextGeometric(double p,
                                            std::uint64_t cap) noexcept;

  /// Zipf-distributed rank in [0, n) with exponent s >= 0 (s = 0 is uniform).
  /// Uses an inverse-CDF table-free rejection sampler good enough for
  /// workload synthesis.
  [[nodiscard]] std::size_t NextZipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) noexcept {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(NextBelow(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  [[nodiscard]] const T& Pick(const std::vector<T>& items) noexcept {
    return items[static_cast<std::size_t>(NextBelow(items.size()))];
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

inline Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline std::uint64_t Rng::NextBelow(std::uint64_t bound) noexcept {
  assert(bound > 0);  // (0 - 0) % 0 below is a division by zero
  auto wide = static_cast<unsigned __int128>((*this)()) * bound;
  auto low = static_cast<std::uint64_t>(wide);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      wide = static_cast<unsigned __int128>((*this)()) * bound;
      low = static_cast<std::uint64_t>(wide);
    }
  }
  return static_cast<std::uint64_t>(wide >> 64);
}

}  // namespace rtmp::util
