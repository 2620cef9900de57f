#include "online/phase_detector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtmp::online {

namespace {

constexpr std::uint64_t PackPair(trace::VariableId a,
                                 trace::VariableId b) noexcept {
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  return (lo << 32) | hi;
}

/// Entries below this weight are dropped from the EWMA model: they no
/// longer influence any drift decision but would otherwise accumulate
/// across phases and grow the model without bound.
constexpr double kModelFloor = 1e-9;

}  // namespace

void SummarizeTransitions(std::span<const trace::Access> window,
                          std::size_t num_ids, TransitionScratch& scratch,
                          TransitionSummary& out) {
  out.weights.clear();
  out.total = 0;
  for (const trace::Access& access : window) {
    if (access.variable >= num_ids) {
      throw std::out_of_range("SummarizeTransitions: id out of range");
    }
  }
  if (window.size() < 2) return;
  std::vector<std::uint64_t>& keys = scratch.keys;
  std::vector<std::uint64_t>& sorted = scratch.sorted;
  std::vector<std::size_t>& count = scratch.count;
  keys.resize(window.size() - 1);
  sorted.resize(keys.size());
  for (std::size_t i = 1; i < window.size(); ++i) {
    keys[i - 1] = PackPair(window[i - 1].variable, window[i].variable);
  }
  // Two stable counting passes (LSD order): by the larger id (low word),
  // then by the smaller id (high word), leave the keys in ascending
  // numeric order — what std::sort produced, without its comparisons.
  const auto counting_pass = [&count, num_ids](
                                 const std::vector<std::uint64_t>& from,
                                 std::vector<std::uint64_t>& to, int shift) {
    count.assign(num_ids + 1, 0);
    for (const std::uint64_t key : from) {
      ++count[((key >> shift) & 0xFFFFFFFFULL) + 1];
    }
    for (std::size_t b = 1; b < count.size(); ++b) count[b] += count[b - 1];
    for (const std::uint64_t key : from) {
      to[count[(key >> shift) & 0xFFFFFFFFULL]++] = key;
    }
  };
  counting_pass(keys, sorted, 0);
  counting_pass(sorted, keys, 32);
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    out.weights.emplace_back(keys[i], j - i);
    i = j;
  }
  out.total = keys.size();
}

std::string_view ToString(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kNone:
      return "none";
    case DetectorKind::kFixedWindow:
      return "fixed";
    case DetectorKind::kEwmaDrift:
      return "ewma";
    case DetectorKind::kCusum:
      return "cusum";
  }
  return "none";
}

PhaseDetector::PhaseDetector(PhaseDetectorConfig config) : config_(config) {
  if (config_.kind == DetectorKind::kFixedWindow && config_.period == 0) {
    throw std::invalid_argument("PhaseDetector: period must be >= 1");
  }
  if (config_.kind == DetectorKind::kEwmaDrift ||
      config_.kind == DetectorKind::kCusum) {
    // The CUSUM statistic accumulates, so its threshold may exceed 1;
    // a single window's TV distance cannot.
    const bool threshold_ok =
        std::isfinite(config_.threshold) && config_.threshold >= 0.0 &&
        (config_.kind == DetectorKind::kCusum || config_.threshold <= 1.0);
    if (!threshold_ok) {
      throw std::invalid_argument(
          config_.kind == DetectorKind::kCusum
              ? "PhaseDetector: cusum threshold must be >= 0"
              : "PhaseDetector: threshold must be in [0, 1]");
    }
    if (!std::isfinite(config_.alpha) || config_.alpha <= 0.0 ||
        config_.alpha > 1.0) {
      throw std::invalid_argument("PhaseDetector: alpha must be in (0, 1]");
    }
  }
  if (config_.kind == DetectorKind::kCusum &&
      (!std::isfinite(config_.slack) || config_.slack < 0.0)) {
    throw std::invalid_argument("PhaseDetector: slack must be >= 0");
  }
}

PhaseDetector::Verdict PhaseDetector::Observe(
    const TransitionSummary& window) {
  ++observed_;
  Verdict verdict;
  switch (config_.kind) {
    case DetectorKind::kNone:
      return verdict;
    case DetectorKind::kFixedWindow:
      // The first window seeds the initial placement; boundaries fall
      // every `period` windows after it.
      verdict.phase_change =
          observed_ > 1 && (observed_ - 1) % config_.period == 0;
      return verdict;
    case DetectorKind::kEwmaDrift:
    case DetectorKind::kCusum:
      break;
  }

  // Normalize the window to a probability distribution; an empty window
  // (fewer than two accesses) carries no signal and leaves the model
  // untouched.
  if (window.empty()) return verdict;
  std::vector<std::pair<std::uint64_t, double>>& current = current_;
  current.clear();
  const double inv_total = 1.0 / static_cast<double>(window.total);
  for (const auto& [key, weight] : window.weights) {
    current.emplace_back(key, static_cast<double>(weight) * inv_total);
  }

  if (model_.empty()) {
    // First informative window (or a fully pruned model): seed, don't
    // compare — there is nothing meaningful to drift from.
    model_.swap(current);
    return verdict;
  }

  // Total variation distance: 0.5 * sum |p(k) - m(k)| over the merged
  // key set. Both inputs are sorted by key.
  double l1 = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < current.size() || j < model_.size()) {
    if (j >= model_.size() ||
        (i < current.size() && current[i].first < model_[j].first)) {
      l1 += current[i].second;
      ++i;
    } else if (i >= current.size() || model_[j].first < current[i].first) {
      l1 += model_[j].second;
      ++j;
    } else {
      l1 += std::fabs(current[i].second - model_[j].second);
      ++i;
      ++j;
    }
  }
  const double tv = 0.5 * l1;
  if (config_.kind == DetectorKind::kCusum) {
    // Only drift above the slack allowance accumulates; stationary noise
    // below it decays the statistic back toward zero.
    cusum_ = std::max(0.0, cusum_ + tv - config_.slack);
    verdict.drift = cusum_;
  } else {
    verdict.drift = tv;
  }
  verdict.phase_change = verdict.drift > config_.threshold;

  if (verdict.phase_change) {
    // Restart the model (and statistic) from the new phase: a single
    // long drift must not re-trigger on every subsequent window.
    model_.swap(current);
    cusum_ = 0.0;
    return verdict;
  }

  // m = (1 - alpha) m + alpha p over the merged key set.
  std::vector<std::pair<std::uint64_t, double>>& updated = updated_;
  updated.clear();
  const double keep = 1.0 - config_.alpha;
  i = 0;
  j = 0;
  while (i < current.size() || j < model_.size()) {
    double value = 0.0;
    std::uint64_t key = 0;
    if (j >= model_.size() ||
        (i < current.size() && current[i].first < model_[j].first)) {
      key = current[i].first;
      value = config_.alpha * current[i].second;
      ++i;
    } else if (i >= current.size() || model_[j].first < current[i].first) {
      key = model_[j].first;
      value = keep * model_[j].second;
      ++j;
    } else {
      key = current[i].first;
      value = keep * model_[j].second + config_.alpha * current[i].second;
      ++i;
      ++j;
    }
    if (value > kModelFloor) updated.emplace_back(key, value);
  }
  model_.swap(updated);
  return verdict;
}

}  // namespace rtmp::online
