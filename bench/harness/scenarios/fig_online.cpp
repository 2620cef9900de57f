// fig_online: static-best vs. online adaptive placement on phased
// workloads — the dynamic-workload scenario family the online engine
// (src/online/) opens.
//
// Three phase-spliced workloads (the phased(a,b,...) combinator of
// workloads/phased.h: same positional variable space, different affinity
// structure per phase) run through the best static constructive
// strategies AND the online policies. Online cells charge migration as
// real device traffic, so "total shifts" already includes the cost of
// adapting; the headline check is that an online policy still beats the
// best single static placement on at least one phased workload. The
// online-static oracle rides along: its cells must equal the wrapped
// static strategy's exactly, keeping the engine honest in CI.
//
// Only constructive strategies are involved, so the scenario is
// effort-independent and fully golden-checked.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "harness/scenarios/scenarios.h"
#include "online/engine.h"
#include "online/online_cell.h"
#include "online/policy.h"
#include "util/stats.h"
#include "workloads/workload.h"

namespace rtmp::benchtool::scenarios {

namespace {

const std::vector<std::string> kPhasedWorkloads = {
    "phased(gemm-tiled,bfs-frontier,stream-scan)",
    "phased(stencil,fft-butterfly)",
    "phased(kv-churn,stream-scan,gemm-tiled)",
};

const std::vector<std::string> kStaticStrategies = {"afd-ofu", "dma-ofu",
                                                    "dma-sr"};
const std::vector<std::string> kOnlinePolicies = {
    "online-static-dma-sr", "online-fixed-dma-sr", "online-ewma-dma-sr"};

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print(
      "== fig_online: static-best vs. online adaptive placement on phased "
      "workloads ==\n\n");

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 8};
  options.strategies.clear();
  for (const std::string& name : kStaticStrategies) {
    options.extra_strategies.push_back(name);
  }
  for (const std::string& name : kOnlinePolicies) {
    options.extra_strategies.push_back(name);
  }
  ctx.Configure(options);  // threads, progress (effort unused: no search)

  const auto suite = sim::LoadWorkloads(kPhasedWorkloads, options);
  const auto results = sim::RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);

  // Per (workload, dbcs): best static vs. best adaptive online policy,
  // total shifts including migration traffic.
  util::TextTable out;
  out.SetHeader({"workload", "dbcs", "best static", "best online",
                 "online/static"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  bool online_beats_static = false;
  bool oracle_holds = true;
  for (const std::string& workload : kPhasedWorkloads) {
    for (const unsigned dbcs : options.dbc_counts) {
      std::uint64_t best_static = std::numeric_limits<std::uint64_t>::max();
      for (const std::string& name : kStaticStrategies) {
        best_static =
            std::min(best_static, table.At(workload, dbcs, name).shifts);
      }
      // online-static is the oracle, not an adaptive policy: exclude it
      // from "best online" (it ties the static baseline by construction).
      std::uint64_t best_online = std::numeric_limits<std::uint64_t>::max();
      for (const std::string& name : kOnlinePolicies) {
        if (name == "online-static-dma-sr") continue;
        best_online =
            std::min(best_online, table.At(workload, dbcs, name).shifts);
      }
      oracle_holds &= table.At(workload, dbcs, "online-static-dma-sr")
                          .shifts == table.At(workload, dbcs, "dma-sr").shifts;
      online_beats_static |= best_online < best_static;

      const double ratio = best_static == 0
                               ? 1.0
                               : static_cast<double>(best_online) /
                                     static_cast<double>(best_static);
      const std::string tag = workload + "/" + std::to_string(dbcs) + "dbc";
      ctx.Scalar("fig_online/best_static_shifts/" + tag,
                 static_cast<double>(best_static), "shifts");
      ctx.Scalar("fig_online/best_online_shifts/" + tag,
                 static_cast<double>(best_online), "shifts");
      ctx.Scalar("fig_online/online_over_static/" + tag, ratio, "x");
      out.AddRow({workload, std::to_string(dbcs),
                  std::to_string(best_static), std::to_string(best_online),
                  util::FormatFixed(ratio, 3)});
    }
  }
  ctx.PrintTable(out);
  ctx.Print("(total shifts; online cells INCLUDE migration traffic)\n\n");

  // Migration anatomy of the headline workload, straight from the
  // engine: how much re-placement the winning policy actually did.
  {
    const std::string& workload_name = kPhasedWorkloads[0];
    const auto policy =
        online::OnlinePolicyRegistry::Global().Find("online-ewma-dma-sr");
    const auto workload = workloads::ResolveWorkload(workload_name);
    const auto benchmark = workload->Generate(
        {options.workload_seed, options.workload_scale});
    std::uint64_t migrations = 0;
    std::uint64_t migrated_vars = 0;
    std::uint64_t migration_shifts = 0;
    std::uint64_t service_shifts = 0;
    std::uint64_t windows = 0;
    for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
      const auto& seq = benchmark.sequences[s];
      if (seq.num_variables() == 0) continue;
      const online::OnlineResult result =
          online::RunOnlineSequence(seq, s, 4, *policy, options,
                                    benchmark.name)
              .result;
      migrations += result.migrations;
      migrated_vars += result.migrated_vars;
      migration_shifts += result.migration_shifts;
      service_shifts += result.service_shifts;
      windows += result.windows.size();
    }
    ctx.Print(
        "online-ewma-dma-sr on %s, 4 DBCs:\n"
        "  %llu windows, %llu re-placements moving %llu variables\n"
        "  %llu service + %llu migration shifts (%.1f%% overhead)\n\n",
        workload_name.c_str(), static_cast<unsigned long long>(windows),
        static_cast<unsigned long long>(migrations),
        static_cast<unsigned long long>(migrated_vars),
        static_cast<unsigned long long>(service_shifts),
        static_cast<unsigned long long>(migration_shifts),
        service_shifts == 0
            ? 0.0
            : 100.0 * static_cast<double>(migration_shifts) /
                  static_cast<double>(service_shifts));
    ctx.Scalar("fig_online/ewma_migrations/4dbc",
               static_cast<double>(migrations), "");
    ctx.Scalar("fig_online/ewma_migrated_vars/4dbc",
               static_cast<double>(migrated_vars), "vars");
    ctx.Scalar("fig_online/ewma_migration_shifts/4dbc",
               static_cast<double>(migration_shifts), "shifts");
    ctx.Check("the adaptive policy actually migrated", migrations > 0);
  }

  ctx.Check(
      "online-static-dma-sr cells equal dma-sr cells exactly (oracle)",
      oracle_holds);
  ctx.Check(
      "an online policy beats the best static placement on total shifts "
      "(incl. migration) on >= 1 phased workload",
      online_beats_static);
}

}  // namespace

void RegisterFigOnline(ScenarioRegistry& registry) {
  registry.Register({"fig_online",
                     "static-best vs. online adaptive placement on phased "
                     "workloads (migration charged)",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios
