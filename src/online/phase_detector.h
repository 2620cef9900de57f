// Phase detection over streaming access windows.
//
// The online placement engine (online/engine.h) consumes a trace in
// fixed-size windows and must decide, at each window boundary, whether the
// workload has entered a new phase — i.e. whether paying for a
// re-placement (migration traffic) is worth considering at all. The
// signal is the window's transition-weight distribution: how often each
// unordered variable pair is accessed consecutively. The single-port
// shift cost of a DBC is these weights times the pairs' offset distances
// (the decomposition ShiftsReduce builds on), but here they are summarized
// globally (placement-independent), so the detector needs no knowledge of
// the current layout.
//
// Three detector families are provided:
//
//  * kFixedWindow — declare a phase boundary every `period` windows.
//    The classic epoch-based reconfiguration baseline (R4-style runtime
//    reconfiguration on a timer).
//  * kEwmaDrift — maintain an exponentially-weighted moving average of
//    the transition distribution and declare a boundary when the total
//    variation distance between the current window and the model exceeds
//    `threshold`. The model resets to the new window on a boundary, so
//    one long drift does not re-trigger every window.
//  * kCusum — accumulate the per-window drift above a `slack` allowance
//    into a CUSUM statistic S = max(0, S + d - slack) and declare a
//    boundary when S exceeds `threshold` (which may exceed 1 — S is
//    cumulative); S and the reference model reset on the boundary.
//    Where kEwmaDrift needs ONE window to jump its threshold, the CUSUM
//    integrates small persistent drifts, catching slow phase ramps at
//    the cost of a detection delay of about threshold / (d - slack)
//    windows.
//
// kNone never declares a boundary (the static/oracle configuration).
// All detectors are deterministic: equal window streams yield equal
// verdicts on every platform.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/access_sequence.h"

namespace rtmp::online {

/// Sparse distribution of consecutive-access variable pairs of one
/// window. Keys pack the unordered pair (min << 32 | max); entries are
/// sorted by key. Self-transitions (u == u) are counted too — they carry
/// no shift cost but do carry phase information (a variable turning from
/// streamed to hammered is a phase signal).
struct TransitionSummary {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> weights;
  std::uint64_t total = 0;

  [[nodiscard]] bool empty() const noexcept { return total == 0; }
};

/// Buffers SummarizeTransitions reuses from one window to the next.
struct TransitionScratch {
  std::vector<std::size_t> count;  ///< counting-pass buckets
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> sorted;
};

/// Builds the transition summary of one window (consecutive pairs over
/// the whole window, regardless of DBC assignment) into `out`, reusing
/// `out`'s and `scratch`'s storage. Every id of the window must be below
/// `num_ids` (throws std::out_of_range otherwise). The keys are ordered
/// by two stable counting passes, first by the pair's larger id, then by
/// its smaller one, each over num_ids + 1 buckets, so the work and memory
/// are O(window + num_ids).
void SummarizeTransitions(std::span<const trace::Access> window,
                          std::size_t num_ids, TransitionScratch& scratch,
                          TransitionSummary& out);

enum class DetectorKind : std::uint8_t {
  kNone,
  kFixedWindow,
  kEwmaDrift,
  kCusum
};

/// "none", "fixed", "ewma", "cusum".
[[nodiscard]] std::string_view ToString(DetectorKind kind);

struct PhaseDetectorConfig {
  DetectorKind kind = DetectorKind::kNone;
  /// kFixedWindow: boundary every `period` observed windows (>= 1).
  std::size_t period = 1;
  /// kEwmaDrift: boundary when total variation distance in [0, 1]
  /// between the window and the model exceeds this. kCusum: boundary
  /// when the accumulated statistic exceeds this (>= 0, may exceed 1).
  double threshold = 0.35;
  /// kEwmaDrift / kCusum: model update weight in (0, 1]; higher forgets
  /// faster.
  double alpha = 0.3;
  /// kCusum: per-window drift allowance (>= 0); only drift above it
  /// accumulates. Raising it ignores stronger stationary noise, at the
  /// cost of missing slower ramps.
  double slack = 0.05;
};

class PhaseDetector {
 public:
  /// Validates the configuration (throws std::invalid_argument on a zero
  /// period, a threshold outside [0, 1] — or merely negative for kCusum —
  /// a negative slack, or an alpha outside (0, 1]).
  explicit PhaseDetector(PhaseDetectorConfig config);

  struct Verdict {
    bool phase_change = false;
    /// Drift score that produced the verdict: total variation distance
    /// for kEwmaDrift, the accumulated statistic for kCusum, 0
    /// otherwise.
    double drift = 0.0;
  };

  /// Feeds one window's summary; returns whether a phase boundary is
  /// declared at this window. The first observed window never declares a
  /// boundary (there is nothing to drift from); it seeds the model.
  Verdict Observe(const TransitionSummary& window);

  [[nodiscard]] const PhaseDetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  PhaseDetectorConfig config_;
  /// kEwmaDrift / kCusum: normalized model distribution, sorted by key.
  std::vector<std::pair<std::uint64_t, double>> model_;
  /// Observe's buffers for the normalized window and the updated model,
  /// swapped with model_ instead of reallocated every window.
  std::vector<std::pair<std::uint64_t, double>> current_;
  std::vector<std::pair<std::uint64_t, double>> updated_;
  /// kCusum: the accumulated statistic S.
  double cusum_ = 0.0;
  std::size_t observed_ = 0;
};

}  // namespace rtmp::online
