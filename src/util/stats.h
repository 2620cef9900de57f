// Small descriptive-statistics helpers used by the experiment harness to
// aggregate per-benchmark results the same way the paper does (geometric
// means over benchmarks, arithmetic means over configurations).
#pragma once

#include <span>
#include <string>

namespace rtmp::util {

/// Arithmetic mean; 0 for an empty span.
[[nodiscard]] double Mean(std::span<const double> values) noexcept;

/// Geometric mean computed in log-space; requires strictly positive values
/// (non-positive entries are clamped to `floor` to keep aggregate plots
/// well-defined when a cost is zero). 0 for an empty span.
[[nodiscard]] double GeoMean(std::span<const double> values,
                             double floor = 1e-12) noexcept;

/// Jain's fairness index (sum x)^2 / (n * sum x^2) over non-negative
/// samples: 1 when every x_i is equal, 1/n when one sample holds
/// everything. 1 for empty or all-zero input (nothing is being divided
/// unfairly). The serve layer scores per-tenant latencies with this.
[[nodiscard]] double JainFairness(std::span<const double> values) noexcept;

/// Formats a double with `digits` significant fraction digits, trimming to a
/// compact human-readable string for report tables.
[[nodiscard]] std::string FormatFixed(double value, int digits);

}  // namespace rtmp::util
