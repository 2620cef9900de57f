// Scenario registry: every paper table/figure reproduction is a named
// scenario on this harness. A scenario declares what to run and what to
// report (cells, scalars, shape checks) through ScenarioContext; the
// harness owns the shared plumbing — effort/thread/progress setup, the
// side-by-side "paper vs measured" presentation, JSON reports and golden
// comparison. The `rtmbench` CLI runs scenarios by name; each legacy
// bench binary is an alias of `rtmbench run <scenario>`.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness/progress.h"
#include "harness/report.h"
#include "obs/obs.h"
#include "offsetstone/suite.h"
#include "sim/experiment.h"
#include "util/table.h"

namespace rtmp::benchtool {

/// Default effort: fast enough for `rtmbench run all` to finish in
/// minutes. Paper-scale: RTMPLACE_EFFORT=1.
inline constexpr double kDefaultEffort = 0.05;

/// What a running scenario talks to: the report being filled and the
/// stdout report stream (suppressed under --quiet; progress stays on
/// stderr and only when it is a tty).
class ScenarioContext {
 public:
  explicit ScenarioContext(double effort, bool quiet,
                           obs::ObsConfig obs = {})
      : effort_(effort), quiet_(quiet), obs_(obs) {}

  [[nodiscard]] double effort() const noexcept { return effort_; }
  [[nodiscard]] BenchReport& report() noexcept { return report_; }

  /// printf to the report stream (stdout), swallowed under --quiet.
  [[gnu::format(printf, 2, 3)]] void Print(const char* format, ...);
  void PrintTable(const util::TextTable& table);
  /// The shared effort banner every search scenario opens with.
  void PrintEffortNote();

  /// Shared matrix setup: effort + thread count (RTMPLACE_THREADS) +
  /// tty-aware progress + the harness' observability sinks (rtmbench
  /// --trace-out). Also records options.seed as the report's
  /// search_seed.
  void Configure(sim::ExperimentOptions& options);

  /// Records a shape check and prints "name: yes|NO<suffix>". Fatal
  /// checks fail the binary's exit code, plain ones only fail golden
  /// comparisons.
  void Check(std::string name, bool pass, std::string_view suffix = "",
             bool fatal = false);

  /// Records a check without printing — for checks whose printed line
  /// embeds measured values (print that line with Print(); keep the
  /// recorded name stable so golden comparisons match it up).
  void RecordCheck(std::string name, bool pass, bool fatal = false);

  /// Records a named scalar result.
  void Scalar(std::string name, double value, std::string unit = "");

  /// Records experiment cells into the report.
  void AddCells(const std::vector<sim::RunResult>& cells);

 private:
  double effort_;
  bool quiet_;
  obs::ObsConfig obs_;
  BenchReport report_;
};

struct Scenario {
  std::string name;
  std::string summary;
  /// Whether RTMPLACE_EFFORT changes the results (GA/RW in the mix).
  /// Golden checks refuse to compare such reports across efforts.
  bool uses_search = true;
  void (*run)(ScenarioContext&) = nullptr;
};

class ScenarioRegistry {
 public:
  /// The registry pre-populated with every built-in scenario.
  static ScenarioRegistry& Global();

  /// Throws std::invalid_argument on a duplicate name.
  void Register(Scenario scenario);
  [[nodiscard]] const Scenario* Find(std::string_view name) const;
  /// Scenario names in registration (paper) order.
  [[nodiscard]] std::vector<std::string> Names() const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Runs one scenario and returns the filled report (metadata included).
/// `obs` (optional) receives the scenario's trace and metrics: every
/// matrix the scenario runs through Configure records into these sinks
/// (see sim::ExperimentOptions::obs for the determinism contract).
[[nodiscard]] BenchReport RunScenario(const Scenario& scenario,
                                      bool quiet = false,
                                      obs::ObsConfig obs = {});

// ---- shared helpers for scenario declarations ------------------------------

/// Names of all suite benchmarks, in Fig. 4 order.
[[nodiscard]] std::vector<std::string> SuiteNames();

/// "paper X / measured Y" cell helper.
[[nodiscard]] std::string PaperVsMeasured(double paper, double measured,
                                          int digits = 2);

/// Factor by which `strategy` reduces shifts relative to `baseline`
/// (geomean over all benchmarks): baseline_shifts / strategy_shifts.
[[nodiscard]] double GeoMeanImprovement(
    const sim::ResultTable& table,
    const std::vector<std::string>& benchmarks, unsigned dbcs,
    const core::StrategySpec& strategy, const core::StrategySpec& baseline);

}  // namespace rtmp::benchtool
