#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace rtmp::util {

double Mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(std::span<const double> values, double floor) noexcept {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(std::max(v, floor));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double JainFairness(std::span<const double> values) noexcept {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double value : values) {
    sum += value;
    sum_sq += value * value;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

std::string FormatFixed(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace rtmp::util
