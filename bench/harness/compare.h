// Golden comparison with per-metric tolerances.
//
// Deterministic counters (shift counts, placement costs, evaluation
// counts, accesses) must match EXACTLY — any drift is a placement or
// cost-model regression. Simulated times/energies are doubles derived
// deterministically from those counters, so they only get FP-level
// headroom. Wall-clock metrics are machine-dependent: they never fail a
// comparison short of a pathological (1000x) regression, and a wall
// field whose golden is below kWallFloorMs is not compared at all.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "harness/report.h"

namespace rtmp::benchtool {

/// rel_tol == 0 compares exactly; rel_tol in (0, 1) bounds the relative
/// difference: |current - golden| <= rel_tol * max(|golden|, |current|);
/// rel_tol >= 1 is a ratio bound, max/min <= rel_tol — the only
/// formulation that can still fail for arbitrarily large drift (a
/// max-normalized relative difference saturates at 1).
struct MetricPolicy {
  double rel_tol = 0.0;
  /// A golden whose magnitude is below this is not compared (any current
  /// value passes); 0 compares every value.
  double floor = 0.0;
};

/// FP headroom for metrics that are deterministic functions of exact
/// counters (simulated runtime, energies, area).
inline constexpr double kFpRelTol = 1e-6;
/// Wall-clock metrics: only a 1000x drift fails.
inline constexpr double kWallRelTol = 1e3;
/// Wall-clock goldens below 1 ms are not compared. A host stall is not a
/// regression: a descheduled or swapped-out process, or a sanitizer build
/// beside other jobs, loses tens to hundreds of milliseconds in one go
/// (an ASan run moved a 0.076 ms cell to 130 ms). From 1 ms up, the 1000x
/// bound leaves a full second of such stall; below it, a stall shorter
/// than a second would fail a correct run, so the ratio carries no
/// signal there. In the scale of the field's name: 1 for `*_ms`, 1e-3
/// for `*_s`.
inline constexpr double kWallFloorMs = 1.0;

/// Policy for a cell-metric or scalar name (see header comment).
[[nodiscard]] MetricPolicy PolicyFor(std::string_view metric);

[[nodiscard]] bool WithinTolerance(double golden, double current,
                                   const MetricPolicy& policy);

/// One metric whose value differs between golden and current.
struct MetricDiff {
  std::string where;   ///< "cell gsm/8/dma-sr", "scalar ...", "check ..."
  std::string metric;  ///< metric or scalar/check name
  double golden = 0.0;
  double current = 0.0;
  bool ok = false;  ///< within the metric's tolerance
};

struct Comparison {
  bool pass = true;
  /// Structural failures: schema/scenario/effort mismatch, missing cells,
  /// missing checks.
  std::vector<std::string> structural;
  /// Every compared metric whose value differs at all (in- and
  /// out-of-tolerance; `ok` tells which).
  std::vector<MetricDiff> diffs;
};

/// Diffs `current` against `golden`. Comparison::pass is false iff any
/// structural failure or out-of-tolerance metric was found.
[[nodiscard]] Comparison CompareReports(const BenchReport& golden,
                                        const BenchReport& current);

/// Prints failures to `out`; with `verbose` also the in-tolerance drifts
/// (the `rtmbench diff` view). Returns the number of failures printed.
std::size_t PrintComparison(std::FILE* out, const Comparison& comparison,
                            bool verbose);

}  // namespace rtmp::benchtool
