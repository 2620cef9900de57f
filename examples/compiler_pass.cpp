// Compiler-integration scenario: a placement pass over trace files.
//
//   $ ./compiler_pass [trace-file]
//
// Mimics how the paper's heuristic would sit inside a compiler backend
// (the practicality argument of SIII-C): consume a memory trace produced
// by profiling/static analysis, pick the layout with the fast DMA
// heuristic, and emit (a) the chosen (DBC, offset) assignment for the
// linker script and (b) a CSV cost report across all strategies. Without
// an argument it materializes a demo trace file first, exercising the
// trace text format end to end.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/cost_model.h"
#include "core/inter_dma.h"
#include "core/strategy_registry.h"
#include "util/stats.h"
#include "rtm/config.h"
#include "sim/simulator.h"
#include "trace/trace_io.h"
#include "trace/trace_stream.h"
#include "util/csv.h"

namespace {

constexpr const char* kDemoTrace =
    "# three-phase kernel with two persistent globals\n"
    "benchmark demo_kernel\n"
    "sequence init\n"
    "gp0! x0! x1! x2! x0 x1 x2 gp1!\n"
    "sequence phase1\n"
    "a0 a1 a0 a1 gp0 a2! a0 a1 a2 a0 gp0 a1 a2\n"
    "sequence phase2\n"
    "b0 b1 b0 b1 gp1 b2! b0 b1 b2 b0 gp1 b1 b2\n"
    "sequence drain\n"
    "gp0 gp1 y0! y1! y0 y1 gp0 gp1\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace rtmp;

  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    path = "demo_kernel.trace";
    std::ofstream out(path);
    out << kDemoTrace;
    std::printf("No trace given; wrote demo trace to %s\n", path.c_str());
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  const trace::TraceFile file = trace::ReadAnyTrace(in);
  std::printf("Benchmark '%s': %zu sequences\n\n", file.benchmark.c_str(),
              file.sequences.size());

  const rtm::RtmConfig config = rtm::RtmConfig::Paper(4);
  core::StrategyOptions options;
  core::ScaleSearchEffort(options, 0.1);

  // Per-sequence placement with the compiler-speed heuristic.
  for (std::size_t s = 0; s < file.sequences.size(); ++s) {
    const auto& seq = file.sequences[s];
    if (seq.num_variables() == 0) continue;
    const auto dma =
        core::DistributeDma(seq, config.total_dbcs(), config.domains_per_dbc,
                            {core::IntraHeuristic::kShiftsReduce});
    const char* name = s < file.sequence_names.size() &&
                               !file.sequence_names[s].empty()
                           ? file.sequence_names[s].c_str()
                           : "(unnamed)";
    std::printf("sequence %s: %zu vars, %zu accesses, %llu shifts\n", name,
                seq.num_variables(), seq.size(),
                static_cast<unsigned long long>(
                    core::ShiftCost(seq, dma.placement)));
    for (std::uint32_t d = 0; d < dma.placement.num_dbcs(); ++d) {
      if (dma.placement.dbc(d).empty()) continue;
      std::printf("  DBC%u @", d);
      for (std::size_t offset = 0; offset < dma.placement.dbc(d).size();
           ++offset) {
        std::printf(" %zu:%s", offset,
                    seq.name_of(dma.placement.dbc(d)[offset]).c_str());
      }
      std::printf("\n");
    }
  }

  // CSV cost report over all strategies (stdout, ready for plotting).
  std::printf("\nCSV report (shift cost per sequence and strategy):\n");
  util::CsvWriter csv(std::cout);
  csv.WriteHeader({"sequence", "strategy", "shifts", "runtime_ns",
                   "energy_pj"});
  for (std::size_t s = 0; s < file.sequences.size(); ++s) {
    const auto& seq = file.sequences[s];
    if (seq.num_variables() == 0) continue;
    for (const char* name : {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr"}) {
      const core::Placement placement =
          core::StrategyRegistry::Global()
              .Find(name)
              ->Run({&seq, config.total_dbcs(), config.domains_per_dbc,
                     options, /*compute_cost=*/false})
              .placement;
      const sim::SimulationResult r = sim::Simulate(seq, placement, config);
      csv.WriteRow({s < file.sequence_names.size() &&
                            !file.sequence_names[s].empty()
                        ? file.sequence_names[s]
                        : "seq" + std::to_string(s),
                    name, std::to_string(r.stats.shifts),
                    util::FormatFixed(r.stats.runtime_ns, 3),
                    util::FormatFixed(r.energy.total_pj(), 3)});
    }
  }
  return 0;
}
