// bench/harness: report round-trips, golden-comparison tolerance logic
// (exact counters fail on any drift, wall-clock drift passes within its
// loose bound and is not compared below its floor), and the scenario
// registry.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "harness/compare.h"
#include "harness/report.h"
#include "harness/scenario.h"

namespace rtmp::benchtool {
namespace {

sim::RunResult MakeCell(const char* benchmark, unsigned dbcs,
                        const char* strategy, std::uint64_t shifts) {
  sim::RunResult cell;
  cell.benchmark = benchmark;
  cell.dbcs = dbcs;
  cell.strategy_name = strategy;
  cell.metrics.shifts = shifts;
  cell.metrics.accesses = 10 * shifts;
  cell.metrics.runtime_ns = 1.5 * static_cast<double>(shifts);
  cell.metrics.leakage_pj = 0.25;
  cell.metrics.read_write_pj = 2.0;
  cell.metrics.shift_pj = 0.5 * static_cast<double>(shifts);
  cell.metrics.area_mm2 = 0.0181;
  cell.placement_cost = shifts;
  cell.placement_wall_ms = 12.5;
  cell.search_evaluations = 321;
  return cell;
}

BenchReport MakeReport() {
  BenchReport report;
  report.scenario = "unit";
  report.git_sha = "deadbeef";
  report.search_effort = 0.05;
  report.suite_seed = 0;
  report.search_seed = 0x0FF5E7;
  report.wall_s = 1.0;
  report.cells.push_back(MakeCell("gsm", 8, "dma-sr", 1000));
  report.cells.push_back(MakeCell("gzip", 4, "afd-ofu", 2000));
  report.scalars.push_back({"unit/improvement", 2.5, "x"});
  report.checks.push_back({"shape holds", true, false});
  return report;
}

TEST(MetricPolicyTest, CountersAreExact) {
  EXPECT_EQ(PolicyFor("shifts").rel_tol, 0.0);
  EXPECT_EQ(PolicyFor("accesses").rel_tol, 0.0);
  EXPECT_EQ(PolicyFor("placement_cost").rel_tol, 0.0);
  EXPECT_EQ(PolicyFor("search_evaluations").rel_tol, 0.0);
}

TEST(MetricPolicyTest, DerivedDoublesGetFpHeadroom) {
  EXPECT_EQ(PolicyFor("runtime_ns").rel_tol, kFpRelTol);
  EXPECT_EQ(PolicyFor("shift_pj").rel_tol, kFpRelTol);
  EXPECT_EQ(PolicyFor("unit/improvement").rel_tol, kFpRelTol);
}

TEST(MetricPolicyTest, WallClockMetricsAreLoose) {
  EXPECT_EQ(PolicyFor("placement_wall_ms").rel_tol, kWallRelTol);
  EXPECT_EQ(PolicyFor("wall_s").rel_tol, kWallRelTol);
  // The floor is 1 ms in the scale of the field's name.
  EXPECT_EQ(PolicyFor("placement_wall_ms").floor, kWallFloorMs);
  EXPECT_EQ(PolicyFor("wall_s").floor, kWallFloorMs / 1e3);
}

TEST(MetricPolicyTest, OnlyWallClockMetricsHaveAFloor) {
  for (const char* name : {"shifts", "accesses", "placement_cost",
                           "search_evaluations", "runtime_ns", "shift_pj",
                           "unit/improvement"}) {
    EXPECT_EQ(PolicyFor(name).floor, 0.0) << name;
  }
}

TEST(WithinToleranceTest, ExactPolicy) {
  EXPECT_TRUE(WithinTolerance(10.0, 10.0, {0.0}));
  EXPECT_FALSE(WithinTolerance(10.0, 10.000001, {0.0}));
}

TEST(WithinToleranceTest, RelativePolicy) {
  EXPECT_TRUE(WithinTolerance(100.0, 100.1, {0.01}));
  EXPECT_FALSE(WithinTolerance(100.0, 102.0, {0.01}));
  // Symmetric: measured against the larger magnitude.
  EXPECT_TRUE(WithinTolerance(0.0, 0.0, {0.01}));
  EXPECT_FALSE(WithinTolerance(0.0, 1.0, {0.01}));
}

TEST(CompareReportsTest, IdenticalReportsPass) {
  const BenchReport golden = MakeReport();
  const Comparison comparison = CompareReports(golden, MakeReport());
  EXPECT_TRUE(comparison.pass);
  EXPECT_TRUE(comparison.structural.empty());
  EXPECT_TRUE(comparison.diffs.empty());
}

TEST(CompareReportsTest, ExactMetricMismatchFails) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells[0].metrics.shifts += 1;  // off by one: a real regression
  const Comparison comparison = CompareReports(golden, current);
  EXPECT_FALSE(comparison.pass);
  bool found = false;
  for (const MetricDiff& diff : comparison.diffs) {
    if (diff.metric == "shifts") {
      found = true;
      EXPECT_FALSE(diff.ok);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompareReportsTest, CounterDriftBeyondDoublePrecisionStillFails) {
  // 2^53 and 2^53 + 1 collapse to the same double; the comparator must
  // compare counters as uint64, not through a double cast.
  const std::uint64_t big = (1ULL << 53);
  BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  golden.cells[0].metrics.shifts = big;
  current.cells[0].metrics.shifts = big + 1;
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, WallTimeDriftWithinTolerancePasses) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells[0].placement_wall_ms *= 7.0;  // another machine, same code
  current.wall_s *= 0.1;
  const Comparison comparison = CompareReports(golden, current);
  EXPECT_TRUE(comparison.pass);
  // The drift is still visible in the diff list, just not failing.
  ASSERT_FALSE(comparison.diffs.empty());
  EXPECT_TRUE(comparison.diffs[0].ok);
}

TEST(CompareReportsTest, PathologicalWallTimeRegressionFails) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells[0].placement_wall_ms *= 5000.0;
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, StalledSubMillisecondWallTimePasses) {
  // A host stall moved a 0.076 ms cell to 130 ms (1,700x): below the
  // floor the wall field is not compared.
  BenchReport golden = MakeReport();
  golden.cells[0].placement_wall_ms = 0.076;
  BenchReport current = golden;
  current.cells[0].placement_wall_ms = 130.0;
  const Comparison comparison = CompareReports(golden, current);
  EXPECT_TRUE(comparison.pass);
  ASSERT_EQ(comparison.diffs.size(), 1u);
  EXPECT_TRUE(comparison.diffs[0].ok);
  EXPECT_TRUE(WithinTolerance(0.5e-3, 10.0, PolicyFor("wall_s")));
}

TEST(CompareReportsTest, WallTimeAtTheFloorIsStillBounded) {
  BenchReport golden = MakeReport();
  golden.cells[0].placement_wall_ms = kWallFloorMs;
  BenchReport current = golden;
  current.cells[0].placement_wall_ms = kWallFloorMs * kWallRelTol * 1.5;
  EXPECT_FALSE(CompareReports(golden, current).pass);
  EXPECT_FALSE(WithinTolerance(2e-3, 3.0, PolicyFor("wall_s")));
}

TEST(CompareReportsTest, SmallNonWallValuesStayExact) {
  // The floor is for wall fields only: a tiny counter or derived double
  // keeps its exact or FP-level tolerance.
  BenchReport golden = MakeReport();
  golden.cells[0].metrics.runtime_ns = 0.5;
  golden.cells[0].metrics.shifts = 0;
  BenchReport current = golden;
  current.cells[0].metrics.runtime_ns = 0.51;
  EXPECT_FALSE(CompareReports(golden, current).pass);
  current = golden;
  current.cells[0].metrics.shifts = 1;
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, FpLevelDriftInDerivedDoublesPasses) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells[0].metrics.runtime_ns *= 1.0 + 1e-9;
  EXPECT_TRUE(CompareReports(golden, current).pass);
  current.cells[0].metrics.runtime_ns *= 1.01;
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, MissingCellIsStructuralFailure) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells.pop_back();
  const Comparison comparison = CompareReports(golden, current);
  EXPECT_FALSE(comparison.pass);
  EXPECT_FALSE(comparison.structural.empty());
}

TEST(CompareReportsTest, ExtraCellIsStructuralFailure) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells.push_back(MakeCell("new", 2, "rw", 5));
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, MissingScalarIsStructuralFailure) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.scalars.clear();
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, SilentGrowthOfScalarsOrChecksFails) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.scalars.push_back({"unit/new_metric", 1.0, ""});
  EXPECT_FALSE(CompareReports(golden, current).pass);

  BenchReport more_checks = MakeReport();
  more_checks.checks.push_back({"new check", true, false});
  EXPECT_FALSE(CompareReports(golden, more_checks).pass);
}

TEST(CompareReportsTest, DisjointKeysAreReportedByNameNotThrown) {
  // Two reports of the same scenario whose scalar/check/cell key sets
  // are fully disjoint — the `rtmbench diff` across-revision case. The
  // comparison must complete (no throw) and name every added and
  // removed key, not just count them.
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells.clear();
  current.cells.push_back(MakeCell("new", 2, "online-ewma-dma-sr", 5));
  current.scalars.clear();
  current.scalars.push_back({"unit/other_metric", 1.0, ""});
  current.checks.clear();
  current.checks.push_back({"other check", true, false});

  Comparison comparison;
  ASSERT_NO_THROW(comparison = CompareReports(golden, current));
  EXPECT_FALSE(comparison.pass);

  const auto has_message = [&comparison](const std::string& needle) {
    for (const std::string& message : comparison.structural) {
      if (message.find(needle) != std::string::npos) return true;
    }
    return false;
  };
  // Removed keys...
  EXPECT_TRUE(has_message("missing cell gsm/8/dma-sr"));
  EXPECT_TRUE(has_message("missing scalar unit/improvement"));
  EXPECT_TRUE(has_message("missing check shape holds"));
  // ... and added keys, each by name.
  EXPECT_TRUE(has_message("added cell new/2/online-ewma-dma-sr"));
  EXPECT_TRUE(has_message("added scalar unit/other_metric"));
  EXPECT_TRUE(has_message("added check other check"));
}

TEST(CompareReportsTest, DuplicateKeysInCurrentReportFail) {
  // A scenario bug that emits one key twice must not slip through the
  // key-set match (only the first occurrence is value-compared).
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.cells.push_back(current.cells[0]);
  Comparison comparison = CompareReports(golden, current);
  EXPECT_FALSE(comparison.pass);
  bool named = false;
  for (const std::string& message : comparison.structural) {
    named |= message.find("duplicate cell gsm/8/dma-sr") != std::string::npos;
  }
  EXPECT_TRUE(named);

  BenchReport dup_scalar = MakeReport();
  dup_scalar.scalars.push_back(dup_scalar.scalars[0]);
  EXPECT_FALSE(CompareReports(golden, dup_scalar).pass);
  BenchReport dup_check = MakeReport();
  dup_check.checks.push_back(dup_check.checks[0]);
  EXPECT_FALSE(CompareReports(golden, dup_check).pass);
}

TEST(CompareReportsTest, NonFiniteScalarsMatchEachOther) {
  // A deterministic NaN (stored as null in JSON) agrees with its golden;
  // NaN vs a finite value still fails.
  BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  golden.scalars[0].value = std::nan("");
  current.scalars[0].value = std::nan("");
  EXPECT_TRUE(CompareReports(golden, current).pass);
  current.scalars[0].value = 2.5;
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, RegressedCheckFailsImprovedCheckPasses) {
  BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.checks[0].pass = false;
  EXPECT_FALSE(CompareReports(golden, current).pass);

  golden.checks[0].pass = false;
  current.checks[0].pass = true;  // newly passing: an improvement
  EXPECT_TRUE(CompareReports(golden, current).pass);
}

TEST(CompareReportsTest, EffortMismatchRefusesComparison) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.search_effort = 1.0;
  const Comparison comparison = CompareReports(golden, current);
  EXPECT_FALSE(comparison.pass);
  ASSERT_FALSE(comparison.structural.empty());
  EXPECT_NE(comparison.structural[0].find("search_effort"),
            std::string::npos);
}

TEST(CompareReportsTest, SeedMismatchRefusesComparison) {
  const BenchReport golden = MakeReport();
  BenchReport suite_drift = MakeReport();
  suite_drift.suite_seed = 7;
  EXPECT_FALSE(CompareReports(golden, suite_drift).pass);
  BenchReport search_drift = MakeReport();
  search_drift.search_seed = 7;
  EXPECT_FALSE(CompareReports(golden, search_drift).pass);
}

TEST(CompareReportsTest, ScenarioMismatchRefusesComparison) {
  const BenchReport golden = MakeReport();
  BenchReport current = MakeReport();
  current.scenario = "other";
  EXPECT_FALSE(CompareReports(golden, current).pass);
}

TEST(BenchReportTest, JsonRoundTripPreservesEverything) {
  const BenchReport report = MakeReport();
  const BenchReport back =
      BenchReport::FromJson(util::JsonValue::Parse(report.ToJson()));
  EXPECT_EQ(back.schema_version, report.schema_version);
  EXPECT_EQ(back.scenario, report.scenario);
  EXPECT_EQ(back.git_sha, report.git_sha);
  EXPECT_EQ(back.search_effort, report.search_effort);
  EXPECT_EQ(back.suite_seed, report.suite_seed);
  EXPECT_EQ(back.search_seed, report.search_seed);
  EXPECT_EQ(back.cells.size(), report.cells.size());
  EXPECT_EQ(back.scalars.size(), report.scalars.size());
  EXPECT_EQ(back.checks.size(), report.checks.size());
  // Round-tripped report compares clean against the original.
  const Comparison comparison = CompareReports(report, back);
  EXPECT_TRUE(comparison.pass);
  EXPECT_TRUE(comparison.diffs.empty());
}

TEST(BenchReportTest, RejectsUnknownSchemaVersion) {
  BenchReport report = MakeReport();
  report.schema_version = kBenchSchemaVersion + 1;
  EXPECT_THROW(
      (void)BenchReport::FromJson(util::JsonValue::Parse(report.ToJson())),
      std::runtime_error);
}

TEST(ScenarioRegistryTest, BuiltinScenariosAreRegistered) {
  auto& registry = ScenarioRegistry::Global();
  for (const char* name :
       {"smoke", "fig3_example", "fig4_shifts", "fig5_energy",
        "fig6_dbc_tradeoff", "sec4c_latency", "headline_summary",
        "ga_convergence", "table1_device_params", "ablation_dma",
        "ablation_intra", "ablation_overlap"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("nope"), nullptr);
}

TEST(ScenarioRegistryTest, SmokeIsEffortIndependent) {
  const Scenario* smoke = ScenarioRegistry::Global().Find("smoke");
  ASSERT_NE(smoke, nullptr);
  EXPECT_FALSE(smoke->uses_search);
}

TEST(ScenarioRegistryTest, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  registry.Register({"x", "", false, nullptr});
  EXPECT_THROW(registry.Register({"x", "", false, nullptr}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtmp::benchtool
