#include "harness/scenario.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>

#include "util/stats.h"

namespace rtmp::benchtool {

namespace internal {
// Defined in harness/scenarios/register.cpp.
void RegisterBuiltinScenarios(ScenarioRegistry& registry);
}  // namespace internal

// ---- ScenarioContext -------------------------------------------------------

void ScenarioContext::Print(const char* format, ...) {
  if (quiet_) return;
  std::va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
}

void ScenarioContext::PrintTable(const util::TextTable& table) {
  if (quiet_) return;
  std::fputs(table.Render().c_str(), stdout);
}

void ScenarioContext::PrintEffortNote() {
  Print("search effort: %.3g of the paper's GA/RW parameters "
        "(set RTMPLACE_EFFORT=1 for paper scale)\n\n",
        effort_);
}

void ScenarioContext::Configure(sim::ExperimentOptions& options) {
  options.search_effort = effort_;
  options.num_threads = sim::ThreadCountFromEnv(0);
  options.progress = StderrProgress();
  options.obs = obs_;
  // Record the seed the matrix cells will actually run with.
  report_.search_seed = options.seed;
}

void ScenarioContext::Check(std::string name, bool pass,
                            std::string_view suffix, bool fatal) {
  Print("%s: %s%.*s\n", name.c_str(), pass ? "yes" : "NO",
        static_cast<int>(suffix.size()), suffix.data());
  RecordCheck(std::move(name), pass, fatal);
}

void ScenarioContext::RecordCheck(std::string name, bool pass, bool fatal) {
  report_.checks.push_back({std::move(name), pass, fatal});
}

void ScenarioContext::Scalar(std::string name, double value,
                             std::string unit) {
  report_.scalars.push_back({std::move(name), value, std::move(unit)});
}

void ScenarioContext::AddCells(const std::vector<sim::RunResult>& cells) {
  report_.cells.insert(report_.cells.end(), cells.begin(), cells.end());
}

// ---- ScenarioRegistry ------------------------------------------------------

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = [] {
    // Leaked Global() singleton: must outlive scenario lookups that
    // run during static destruction.
    // NOLINTNEXTLINE(rtmlint:naked-new): leaked Global() singleton.
    auto* r = new ScenarioRegistry();
    internal::RegisterBuiltinScenarios(*r);
    return r;
  }();
  return *registry;
}

void ScenarioRegistry::Register(Scenario scenario) {
  if (Find(scenario.name) != nullptr) {
    throw std::invalid_argument("duplicate scenario '" + scenario.name + "'");
  }
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioRegistry::Find(std::string_view name) const {
  for (const Scenario& scenario : scenarios_) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const Scenario& scenario : scenarios_) names.push_back(scenario.name);
  return names;
}

// ---- running ---------------------------------------------------------------

BenchReport RunScenario(const Scenario& scenario, bool quiet,
                        obs::ObsConfig obs) {
  const double effort = sim::SearchEffortFromEnv(kDefaultEffort);
  ScenarioContext context(effort, quiet, obs);
  BenchReport& report = context.report();
  report.scenario = scenario.name;
  report.git_sha = CurrentGitSha();
  report.search_effort = scenario.uses_search ? effort : 0.0;
  // Every scenario generates its traces with GenerateSuite's default
  // suite seed; Configure() fills in search_seed when a matrix runs.
  report.suite_seed = 0;

  // wall_s IS a wall-clock metric (loose-tolerance in the comparator),
  // not part of the deterministic results — a raw clock is the point.
  // NOLINTNEXTLINE(rtmlint:determinism-rng): wall-clock metric by design.
  const auto start = std::chrono::steady_clock::now();
  scenario.run(context);
  report.wall_s =
      // NOLINTNEXTLINE(rtmlint:determinism-rng): wall-clock metric.
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return report;
}

// ---- shared helpers --------------------------------------------------------

std::vector<std::string> SuiteNames() {
  std::vector<std::string> names;
  for (const auto& profile : offsetstone::SuiteProfiles()) {
    names.push_back(profile.name);
  }
  return names;
}

std::string PaperVsMeasured(double paper, double measured, int digits) {
  return util::FormatFixed(paper, digits) + " / " +
         util::FormatFixed(measured, digits);
}

double GeoMeanImprovement(const sim::ResultTable& table,
                          const std::vector<std::string>& benchmarks,
                          unsigned dbcs, const core::StrategySpec& strategy,
                          const core::StrategySpec& baseline) {
  const auto normalized =
      table.NormalizedShifts(benchmarks, dbcs, strategy, baseline);
  const double ratio = util::GeoMean(normalized);
  return ratio == 0.0 ? 0.0 : 1.0 / ratio;
}

}  // namespace rtmp::benchtool
