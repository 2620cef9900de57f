#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace rtmp::util {

std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t HashString(std::string_view text) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  // Fold through the splitmix finalizer for better avalanche on short names.
  std::uint64_t state = h;
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) noexcept {
  const auto width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // [INT64_MIN, INT64_MAX] wraps the width to 0: every word is in range.
  if (width == 0) return static_cast<std::int64_t>((*this)());
  // Add in uint64: lo + draw can exceed INT64_MAX on the way to hi.
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   NextBelow(width));
}

double Rng::NextDouble() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) noexcept {
  p = std::clamp(p, 0.0, 1.0);
  return NextDouble() < p;
}

std::size_t Rng::NextWeighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights) total += std::max(w, 0.0);
  double target = NextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= std::max(weights[i], 0.0);
    if (target < 0.0) return i;
  }
  return weights.size() - 1;
}

std::uint64_t Rng::NextGeometric(double p, std::uint64_t cap) noexcept {
  p = std::clamp(p, 1e-9, 1.0);
  std::uint64_t failures = 0;
  while (failures < cap && !NextBool(p)) ++failures;
  return failures;
}

std::size_t Rng::NextZipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 0;
  if (s <= 0.0) return static_cast<std::size_t>(NextBelow(n));
  // Rejection sampler over the continuous envelope (Devroye). Deterministic
  // given the stream; average a handful of iterations.
  const double nd = static_cast<double>(n);
  for (;;) {
    const double u = NextDouble();
    const double v = NextDouble();
    double x = 0.0;
    if (s == 1.0) {
      x = std::exp(u * std::log(nd + 1.0));
    } else {
      const double t = std::pow(nd + 1.0, 1.0 - s);
      x = std::pow(u * (t - 1.0) + 1.0, 1.0 / (1.0 - s));
    }
    const auto k = static_cast<std::size_t>(x);  // in [1, n] nearly always
    if (k < 1 || k > n) continue;
    const double ratio = std::pow(static_cast<double>(k) / x, s);
    if (v * x / static_cast<double>(k) <= ratio) return k - 1;
  }
}

}  // namespace rtmp::util
