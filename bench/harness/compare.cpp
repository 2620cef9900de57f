#include "harness/compare.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <utility>

namespace rtmp::benchtool {

namespace {

/// The exact counters of one cell, by schema name. Compared as uint64 —
/// a double cast would collapse >2^53 neighbors and defeat the "must
/// match exactly" policy the raw-text JSON numbers exist to uphold.
std::array<std::pair<std::string_view, std::uint64_t>, 4> CellCounters(
    const sim::RunResult& cell) {
  return {{{"shifts", cell.metrics.shifts},
           {"accesses", cell.metrics.accesses},
           {"placement_cost", cell.placement_cost},
           {"search_evaluations",
            static_cast<std::uint64_t>(cell.search_evaluations)}}};
}

/// The tolerance-compared double metrics of one cell. benchmark, dbcs
/// and strategy are the match key (CellKey), not metrics.
std::array<std::pair<std::string_view, double>, 6> CellMetrics(
    const sim::RunResult& cell) {
  return {{{"runtime_ns", cell.metrics.runtime_ns},
           {"leakage_pj", cell.metrics.leakage_pj},
           {"read_write_pj", cell.metrics.read_write_pj},
           {"shift_pj", cell.metrics.shift_pj},
           {"area_mm2", cell.metrics.area_mm2},
           {"placement_wall_ms", cell.placement_wall_ms}}};
}

std::string CellKey(const sim::RunResult& cell) {
  return cell.benchmark + "/" + std::to_string(cell.dbcs) + "/" +
         cell.strategy_name;
}

bool IsWallMetric(std::string_view name) {
  return name.find("wall") != std::string_view::npos;
}

}  // namespace

MetricPolicy PolicyFor(std::string_view metric) {
  if (IsWallMetric(metric)) {
    const bool seconds = metric.ends_with("_s");
    return {kWallRelTol, seconds ? kWallFloorMs / 1e3 : kWallFloorMs};
  }
  if (metric == "shifts" || metric == "accesses" ||
      metric == "placement_cost" || metric == "search_evaluations") {
    return {0.0};  // deterministic counters: exact
  }
  return {kFpRelTol};
}

bool WithinTolerance(double golden, double current,
                     const MetricPolicy& policy) {
  if (golden == current) return true;
  // Two NaNs agree: a scenario that deterministically produces a
  // non-finite value (stored as null) still matches its golden.
  if (std::isnan(golden) && std::isnan(current)) return true;
  if (std::isnan(golden) || std::isnan(current)) return false;
  if (std::fabs(golden) < policy.floor) return true;
  if (policy.rel_tol <= 0.0) return false;
  if (policy.rel_tol >= 1.0) {
    // Ratio bound (wall-clock metrics). A sub-resolution timing on
    // either side carries no signal — never fail on it.
    const double lo = std::min(golden, current);
    const double hi = std::max(golden, current);
    if (lo <= 0.0) return true;
    return hi / lo <= policy.rel_tol;
  }
  const double scale = std::max(std::fabs(golden), std::fabs(current));
  return std::fabs(current - golden) <= policy.rel_tol * scale;
}

Comparison CompareReports(const BenchReport& golden,
                          const BenchReport& current) {
  Comparison comparison;
  const auto structural_fail = [&comparison](std::string what) {
    comparison.structural.push_back(std::move(what));
    comparison.pass = false;
  };

  if (golden.schema_version != current.schema_version) {
    structural_fail("schema_version mismatch: golden v" +
                    std::to_string(golden.schema_version) + ", current v" +
                    std::to_string(current.schema_version));
    return comparison;
  }
  if (golden.scenario != current.scenario) {
    structural_fail("scenario mismatch: golden '" + golden.scenario +
                    "', current '" + current.scenario + "'");
    return comparison;
  }
  // A search scenario's numbers are only comparable at equal effort; 0
  // marks an effort-independent report.
  if (golden.search_effort != current.search_effort) {
    structural_fail(
        "search_effort mismatch: golden " +
        util::JsonNumber(golden.search_effort) + ", current " +
        util::JsonNumber(current.search_effort) +
        " (set RTMPLACE_EFFORT to the golden's effort, or regenerate the "
        "golden with --update-golden)");
    return comparison;
  }
  if (golden.suite_seed != current.suite_seed) {
    structural_fail("suite seed mismatch: golden " +
                    std::to_string(golden.suite_seed) + ", current " +
                    std::to_string(current.suite_seed));
    return comparison;
  }
  if (golden.search_seed != current.search_seed) {
    structural_fail("search seed mismatch: golden " +
                    std::to_string(golden.search_seed) + ", current " +
                    std::to_string(current.search_seed));
    return comparison;
  }

  const auto add_diff = [&comparison](std::string where, std::string_view name,
                                      double golden_value,
                                      double current_value) {
    if (golden_value == current_value) return;
    MetricDiff diff;
    diff.where = std::move(where);
    diff.metric = std::string(name);
    diff.golden = golden_value;
    diff.current = current_value;
    diff.ok = WithinTolerance(golden_value, current_value, PolicyFor(name));
    if (!diff.ok) comparison.pass = false;
    comparison.diffs.push_back(std::move(diff));
  };

  // Disjoint keys never throw: a key present on only one side is
  // reported by name ("missing ..." for removed, "added ..." for new) so
  // `rtmbench diff` across scenario revisions names exactly what grew or
  // shrank instead of failing with bare counts. Duplicate keys in the
  // current report are flagged too — the match maps would otherwise
  // silently compare only the first occurrence.

  // -- cells, matched by (benchmark, dbcs, strategy) -----------------------
  std::map<std::string, const sim::RunResult*> current_cells;
  for (const sim::RunResult& cell : current.cells) {
    if (!current_cells.emplace(CellKey(cell), &cell).second) {
      structural_fail("duplicate cell " + CellKey(cell) +
                      " in current report");
    }
  }
  std::set<std::string> golden_cell_keys;
  for (const sim::RunResult& cell : golden.cells) {
    golden_cell_keys.insert(CellKey(cell));
  }
  for (const sim::RunResult& golden_cell : golden.cells) {
    const auto it = current_cells.find(CellKey(golden_cell));
    if (it == current_cells.end()) {
      structural_fail("missing cell " + CellKey(golden_cell));
      continue;
    }
    const auto golden_counters = CellCounters(golden_cell);
    const auto current_counters = CellCounters(*it->second);
    for (std::size_t m = 0; m < golden_counters.size(); ++m) {
      if (golden_counters[m].second == current_counters[m].second) continue;
      MetricDiff diff;
      diff.where = "cell " + CellKey(golden_cell);
      diff.metric = std::string(golden_counters[m].first);
      diff.golden = static_cast<double>(golden_counters[m].second);
      diff.current = static_cast<double>(current_counters[m].second);
      diff.ok = false;  // counters are exact: any uint64 drift fails
      comparison.pass = false;
      comparison.diffs.push_back(std::move(diff));
    }
    const auto golden_metrics = CellMetrics(golden_cell);
    const auto current_metrics = CellMetrics(*it->second);
    for (std::size_t m = 0; m < golden_metrics.size(); ++m) {
      add_diff("cell " + CellKey(golden_cell), golden_metrics[m].first,
               golden_metrics[m].second, current_metrics[m].second);
    }
  }
  // Extra cells are fine for a diff but suspicious for a golden check:
  // flag each by key so a scenario that silently grew is noticed.
  for (const auto& [key, cell] : current_cells) {
    if (!golden_cell_keys.contains(key)) {
      structural_fail("added cell " + key);
    }
  }

  // -- scalars, matched by name -------------------------------------------
  std::map<std::string, double> current_scalars;
  for (const ScalarResult& scalar : current.scalars) {
    if (!current_scalars.emplace(scalar.name, scalar.value).second) {
      structural_fail("duplicate scalar " + scalar.name +
                      " in current report");
    }
  }
  for (const ScalarResult& golden_scalar : golden.scalars) {
    const auto it = current_scalars.find(golden_scalar.name);
    if (it == current_scalars.end()) {
      structural_fail("missing scalar " + golden_scalar.name);
      continue;
    }
    add_diff("scalar", golden_scalar.name, golden_scalar.value, it->second);
  }
  {
    std::set<std::string> golden_scalars;
    for (const ScalarResult& scalar : golden.scalars) {
      golden_scalars.insert(scalar.name);
    }
    for (const auto& [name, value] : current_scalars) {
      if (!golden_scalars.contains(name)) {
        structural_fail("added scalar " + name);
      }
    }
  }

  // -- checks: a pass in the golden must not regress -----------------------
  std::map<std::string, bool> current_checks;
  for (const CheckResult& check : current.checks) {
    if (!current_checks.emplace(check.name, check.pass).second) {
      structural_fail("duplicate check " + check.name + " in current report");
    }
  }
  for (const CheckResult& golden_check : golden.checks) {
    const auto it = current_checks.find(golden_check.name);
    if (it == current_checks.end()) {
      structural_fail("missing check " + golden_check.name);
      continue;
    }
    if (golden_check.pass != it->second) {
      MetricDiff diff;
      diff.where = "check";
      diff.metric = golden_check.name;
      diff.golden = golden_check.pass ? 1.0 : 0.0;
      diff.current = it->second ? 1.0 : 0.0;
      // A check that newly passes is an improvement, not a regression.
      diff.ok = it->second;
      if (!diff.ok) comparison.pass = false;
      comparison.diffs.push_back(std::move(diff));
    }
  }
  {
    std::set<std::string> golden_checks;
    for (const CheckResult& check : golden.checks) {
      golden_checks.insert(check.name);
    }
    for (const auto& [name, pass] : current_checks) {
      if (!golden_checks.contains(name)) {
        structural_fail("added check " + name);
      }
    }
  }

  return comparison;
}

std::size_t PrintComparison(std::FILE* out, const Comparison& comparison,
                            bool verbose) {
  std::size_t failures = 0;
  for (const std::string& what : comparison.structural) {
    std::fprintf(out, "FAIL  %s\n", what.c_str());
    ++failures;
  }
  for (const MetricDiff& diff : comparison.diffs) {
    if (diff.ok && !verbose) continue;
    const double scale = std::max(std::fabs(diff.golden),
                                  std::fabs(diff.current));
    const double rel = scale > 0.0 ? (diff.current - diff.golden) / scale : 0.0;
    std::fprintf(out, "%s  %s %s: golden %s, current %s (%+.3g%%)\n",
                 diff.ok ? "drift" : "FAIL ", diff.where.c_str(),
                 diff.metric.c_str(), util::JsonNumber(diff.golden).c_str(),
                 util::JsonNumber(diff.current).c_str(), 100.0 * rel);
    if (!diff.ok) ++failures;
  }
  return failures;
}

}  // namespace rtmp::benchtool
