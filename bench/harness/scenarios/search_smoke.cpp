// The search-strategy regression scenario: the paper's GA and random walk
// on three suite benchmarks at two DBC counts. The scenario pins its own
// search effort (kSearchSmokeEffort) instead of reading RTMPLACE_EFFORT,
// so its golden is effort-independent: every cell's best cost, search
// evaluations and simulated shifts are pinned by bench/golden/, and any
// change to the random draws, the candidate scoring or the GA operators
// fails `rtmbench run search_smoke --check`.
#include <stdexcept>

#include "core/strategy.h"
#include "harness/scenarios/scenarios.h"

namespace rtmp::benchtool::scenarios {

namespace {

// 2 GA generations of mu = lambda = 4 and 600 random-walk draws per
// sequence: the whole scenario runs in well under a second.
constexpr double kSearchSmokeEffort = 0.01;

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== search_smoke: ga and rw at a fixed effort %.3g "
            "(golden-checked in CI) ==\n\n",
            kSearchSmokeEffort);

  const char* subset[] = {"dct", "fft", "gsm"};

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 16};
  options.strategies = {
      {core::InterPolicy::kGa, core::IntraHeuristic::kNone},
      {core::InterPolicy::kRandomWalk, core::IntraHeuristic::kNone},
  };
  ctx.Configure(options);  // threads, progress, obs
  options.search_effort = kSearchSmokeEffort;

  std::vector<offsetstone::Benchmark> suite;
  for (const char* name : subset) {
    const auto profile = offsetstone::FindProfile(name);
    if (!profile) throw std::logic_error("unknown search_smoke benchmark");
    suite.push_back(offsetstone::Generate(*profile));
  }
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);

  util::TextTable out;
  out.SetHeader({"benchmark", "strategy", "DBCs", "shifts", "evaluations"});
  out.SetAlignments({util::Align::kLeft, util::Align::kLeft,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  for (const auto& cell : results) {
    out.AddRow({cell.benchmark, cell.strategy_name, std::to_string(cell.dbcs),
                std::to_string(cell.metrics.shifts),
                std::to_string(cell.search_evaluations)});
  }
  ctx.PrintTable(out);
  ctx.Print("\n");

  ctx.Check("placement cost agrees with simulated shifts", [&results] {
    for (const auto& cell : results) {
      if (cell.placement_cost != cell.metrics.shifts) return false;
    }
    return true;
  }());
  ctx.Check("every search cell scored some candidates", [&results] {
    for (const auto& cell : results) {
      if (cell.search_evaluations == 0) return false;
    }
    return true;
  }());
}

}  // namespace

void RegisterSearchSmoke(ScenarioRegistry& registry) {
  // uses_search = false: the effort is fixed above, so the report is
  // comparable under any RTMPLACE_EFFORT.
  registry.Register({"search_smoke",
                     "ga and rw at a fixed effort for CI golden checks",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios
