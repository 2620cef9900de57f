// Ablations for the implementation's own design choices, plus the paper's
// SVI future-work extension:
//   A. multi-set DMA (dma2): one disjoint set per DBC vs the single-set
//      heuristic of Algorithm 1.
//   B. GA seeding: heuristic-seeded initial population (the paper's
//      conclusion) vs a purely random one, at equal budget.
//   C. GA mutation weights: the paper's 10:10:3 skew vs uniform 1:1:1.
//   D. access ports per track: the multi-port cost of the same DMA-SR
//      placement (Chen's multi-DBC heuristic assumed >= 2 ports; DMA is
//      port-count independent).
#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "core/multi_dma.h"
#include "core/strategy.h"
#include "harness/scenarios/scenarios.h"
#include "rtm/config.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Ablations: DMA variants, GA choices, port count ==\n\n");
  const double effort = ctx.effort();
  ctx.PrintEffortNote();

  const auto suite = offsetstone::GenerateSuite();
  const auto find_benchmark =
      [&suite](std::string_view name) -> const offsetstone::Benchmark& {
    for (const auto& b : suite) {
      if (b.name == name) return b;
    }
    throw std::logic_error("unknown benchmark in ablation subset");
  };
  // A representative subset keeps the ablations quick.
  const char* subset[] = {"dct", "fft", "gsm", "bison", "gzip", "jpeg",
                          "mpeg2", "viterbi"};
  const unsigned dbcs = 8;
  const std::uint32_t capacity = rtm::RtmConfig::Paper(dbcs).domains_per_dbc;

  // -- A: single-set vs multi-set DMA ------------------------------------
  ctx.Print("-- A: dma-sr vs dma2-sr (multi disjoint sets, SVI future "
            "work), %u DBCs --\n", dbcs);
  util::TextTable a;
  a.SetHeader({"benchmark", "dma-sr", "dma2-sr", "gain"});
  a.SetAlignments({util::Align::kLeft, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight});
  std::vector<double> gains;
  for (const char* name : subset) {
    const auto& benchmark = find_benchmark(name);
    std::uint64_t single = 0;
    std::uint64_t multi = 0;
    for (const auto& seq : benchmark.sequences) {
      const std::uint32_t cap =
          seq.num_variables() > static_cast<std::size_t>(capacity) * dbcs
              ? static_cast<std::uint32_t>(
                    (seq.num_variables() + dbcs - 1) / dbcs)
              : capacity;
      single += core::ShiftCost(
          seq, core::DistributeDma(seq, dbcs, cap,
                                   {core::IntraHeuristic::kShiftsReduce})
                   .placement);
      core::MultiDmaOptions multi_options;
      multi_options.base.intra = core::IntraHeuristic::kShiftsReduce;
      multi += core::ShiftCost(
          seq, core::DistributeMultiDma(seq, dbcs, cap, multi_options)
                   .placement);
    }
    const double gain =
        multi > 0 ? static_cast<double>(single) / static_cast<double>(multi)
                  : 1.0;
    gains.push_back(gain);
    ctx.Scalar("ablation_dma/a/dma_sr_shifts/" + std::string(name),
               static_cast<double>(single));
    ctx.Scalar("ablation_dma/a/dma2_sr_shifts/" + std::string(name),
               static_cast<double>(multi));
    a.AddRow({name, std::to_string(single), std::to_string(multi),
              util::FormatFixed(gain, 2) + "x"});
  }
  a.AddRule();
  const double gain_geomean = util::GeoMean(gains);
  ctx.Scalar("ablation_dma/a/gain_geomean", gain_geomean, "x");
  a.AddRow({"geomean", "", "", util::FormatFixed(gain_geomean, 2) + "x"});
  ctx.PrintTable(a);

  // -- B & C: GA seeding and mutation weights -----------------------------
  ctx.Print("\n-- B/C: GA ablations (benchmark gsm, largest sequence, %u "
            "DBCs) --\n", dbcs);
  const auto& gsm = find_benchmark("gsm");
  std::size_t longest = 0;
  for (std::size_t i = 0; i < gsm.sequences.size(); ++i) {
    if (gsm.sequences[i].size() > gsm.sequences[longest].size()) longest = i;
  }
  const auto& seq = gsm.sequences[longest];

  core::GaOptions base;
  base.mu = base.lambda = std::max<std::size_t>(
      8, static_cast<std::size_t>(100 * effort * 4));
  base.generations = std::max<std::size_t>(
      10, static_cast<std::size_t>(200 * effort * 4));
  base.seed = 0xAB1A7E;

  util::TextTable bc;
  bc.SetHeader({"GA variant", "best shifts", "vs base"});
  bc.SetAlignments({util::Align::kLeft, util::Align::kRight,
                    util::Align::kRight});
  const auto run = [&](core::GaOptions options) {
    return core::RunGa(seq, dbcs, core::kUnboundedCapacity, options)
        .best_cost;
  };
  const std::uint64_t with_seeding = run(base);
  core::GaOptions unseeded = base;
  unseeded.seed_with_heuristics = false;
  const std::uint64_t without_seeding = run(unseeded);
  core::GaOptions uniform = base;
  uniform.move_weight = uniform.transpose_weight = uniform.permute_weight = 1;
  const std::uint64_t uniform_weights = run(uniform);
  core::GaOptions no_permute = base;
  no_permute.permute_weight = 0;
  const std::uint64_t without_permute = run(no_permute);
  auto rel = [&](std::uint64_t v) {
    return with_seeding == 0
               ? std::string("-")
               : util::FormatFixed(static_cast<double>(v) /
                                       static_cast<double>(with_seeding),
                                   2) + "x";
  };
  ctx.Scalar("ablation_dma/bc/seeded", static_cast<double>(with_seeding));
  ctx.Scalar("ablation_dma/bc/unseeded",
             static_cast<double>(without_seeding));
  ctx.Scalar("ablation_dma/bc/uniform_weights",
             static_cast<double>(uniform_weights));
  ctx.Scalar("ablation_dma/bc/no_permute",
             static_cast<double>(without_permute));
  bc.AddRow({"base (seeded, 10:10:3)", std::to_string(with_seeding), "1.00x"});
  bc.AddRow({"unseeded population", std::to_string(without_seeding),
             rel(without_seeding)});
  bc.AddRow({"uniform mutation weights", std::to_string(uniform_weights),
             rel(uniform_weights)});
  bc.AddRow({"no permute mutation", std::to_string(without_permute),
             rel(without_permute)});
  ctx.PrintTable(bc);
  ctx.Print("(seeding bounds the GA by the best heuristic from generation "
            "0 — the paper's SVI observation)\n");

  // -- D: ports per track --------------------------------------------------
  // Chen's multi-DBC heuristic assumed >= 2 ports per track; DMA is
  // port-count independent (paper SII-B). Extra ports rescue placements
  // with long jumps (AFD) far more than placements that already cluster
  // hot variables (DMA-SR) — which is why the paper's single-port results
  // generalize.
  ctx.Print("\n-- D: multi-port shift cost of fixed placements (gsm) --\n");
  const auto afd_placement = core::DistributeAfd(
      seq, dbcs, core::kUnboundedCapacity, {core::IntraHeuristic::kOfu});
  const auto dma_placement =
      core::DistributeDma(seq, dbcs, core::kUnboundedCapacity,
                          {core::IntraHeuristic::kShiftsReduce})
          .placement;
  std::uint32_t longest_dbc = 1;
  for (const auto* placement : {&afd_placement, &dma_placement}) {
    for (std::uint32_t d = 0; d < placement->num_dbcs(); ++d) {
      longest_dbc = std::max(
          longest_dbc, static_cast<std::uint32_t>(placement->dbc(d).size()));
    }
  }
  util::TextTable ports;
  ports.SetHeader({"ports/track", "afd-ofu shifts", "dma-sr shifts"});
  ports.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight});
  for (const unsigned port_count : {1u, 2u, 4u}) {
    std::vector<std::uint32_t> port_offsets;
    for (unsigned p = 0; p < port_count; ++p) {
      port_offsets.push_back(static_cast<std::uint32_t>(
          (2ULL * p + 1) * longest_dbc / (2ULL * port_count)));
    }
    const auto shifts = [&](const core::Placement& placement) {
      const std::vector<std::uint64_t> per_dbc =
          core::MultiPortShiftCost(seq, placement, port_offsets);
      return std::accumulate(per_dbc.begin(), per_dbc.end(), std::uint64_t{0});
    };
    const std::uint64_t afd_shifts = shifts(afd_placement);
    const std::uint64_t dma_shifts = shifts(dma_placement);
    ctx.Scalar("ablation_dma/d/afd_ofu_shifts/" +
                   std::to_string(port_count) + "port",
               static_cast<double>(afd_shifts));
    ctx.Scalar("ablation_dma/d/dma_sr_shifts/" +
                   std::to_string(port_count) + "port",
               static_cast<double>(dma_shifts));
    ports.AddRow({std::to_string(port_count), std::to_string(afd_shifts),
                  std::to_string(dma_shifts)});
  }
  ctx.PrintTable(ports);
  ctx.Print("(extra ports mainly rescue jump-heavy layouts; they also "
            "cost area and leakage — cf. Table I trend and Fig. 6)\n");
}

}  // namespace

void RegisterAblationDma(ScenarioRegistry& registry) {
  registry.Register({"ablation_dma",
                     "Ablations: DMA variants, GA choices, port count",
                     /*uses_search=*/true, Run});
}

}  // namespace rtmp::benchtool::scenarios
