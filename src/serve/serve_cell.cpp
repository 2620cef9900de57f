#include "serve/serve_cell.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/strings.h"

namespace rtmp::serve {

sim::SimulationResult ToSimulationResult(const ServeResult& result,
                                         const rtm::RtmConfig& config) {
  sim::SimulationResult sim_result;
  sim_result.stats.reads = result.reads;
  sim_result.stats.writes = result.writes;
  sim_result.stats.shifts = result.total_shifts;
  sim_result.stats.runtime_ns = result.makespan_ns;
  sim_result.energy = result.energy;
  sim_result.area_mm2 = config.params.area_mm2;
  return sim_result;
}

sim::CellRun<ServeResult> RunServeBenchmark(
    const offsetstone::Benchmark& benchmark, unsigned dbcs,
    const ServePolicy& policy, const sim::ExperimentOptions& options) {
  // All tenants share one device, so the cell's variable population is
  // the union of every admitted sequence's (tenant-prefixed) space.
  std::size_t total_vars = 0;
  for (const trace::AccessSequence& seq : benchmark.sequences) {
    total_vars += seq.num_variables();
  }
  if (total_vars == 0) {
    throw std::invalid_argument("RunServeBenchmark: '" + benchmark.name +
                                "' has no variables to serve");
  }
  const rtm::RtmConfig device = sim::CellConfig(dbcs, total_vars);
  ServeConfig config = policy.MakeConfig();
  sim::StampCellSearch(config.engine.strategy_options, device, options,
                       benchmark.name, /*sequence_index=*/0, dbcs);
  // Observability rides along; PlacementService::Run re-stamps tid with
  // the shard index per shard engine.
  config.obs = options.obs;
  PlacementService service(std::move(config), device);
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const trace::AccessSequence& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    (void)service.OpenSession(util::Concat({"t", std::to_string(s)}), seq);
  }
  return {device, service.Run()};
}

}  // namespace rtmp::serve
