#include "online/online_cell.h"

#include <cstdint>

namespace rtmp::online {

sim::SimulationResult ToSimulationResult(const OnlineResult& result,
                                         const rtm::RtmConfig& config) {
  sim::SimulationResult sim_result;
  sim_result.stats.reads = result.reads;
  sim_result.stats.writes = result.writes;
  sim_result.stats.shifts = result.stats.shifts;
  sim_result.stats.runtime_ns = result.stats.makespan_ns;
  sim_result.energy = result.energy;
  sim_result.area_mm2 = config.params.area_mm2;
  return sim_result;
}

sim::CellRun<OnlineResult> RunOnlineSequence(
    const trace::AccessSequence& seq, std::size_t sequence_index,
    unsigned dbcs, const OnlinePolicy& policy,
    const sim::ExperimentOptions& options, std::string_view benchmark_name) {
  const rtm::RtmConfig device = sim::CellConfig(dbcs, seq.num_variables());
  OnlineConfig config = policy.MakeConfig();
  sim::StampCellSearch(config.strategy_options, device, options,
                       benchmark_name, sequence_index, dbcs);
  // Observability rides along; within a cell, tid tells sequences apart.
  config.obs = options.obs;
  config.obs.tid = static_cast<std::uint32_t>(sequence_index);
  return {device, RunOnline(seq, config, device)};
}

}  // namespace rtmp::online
