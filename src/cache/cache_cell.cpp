#include "cache/cache_cell.h"

#include <cstdint>

namespace rtmp::cache {

sim::SimulationResult ToSimulationResult(const CacheResult& result,
                                         const rtm::RtmConfig& config) {
  sim::SimulationResult sim_result;
  // Each writeback reads the device once, each fill writes it once (the
  // sweeps executed in the pre-serve hook); the wrapped engine's tallies
  // do not include them, the controller's shift total does.
  sim_result.stats.reads = result.online.reads + result.cache.writebacks;
  sim_result.stats.writes = result.online.writes + result.cache.fills;
  sim_result.stats.shifts = result.online.stats.shifts;
  sim_result.stats.runtime_ns =
      result.online.stats.makespan_ns + result.cache.backing_ns;
  sim_result.energy = result.online.energy;
  // Backing transfers land in the read/write term; leakage stays the
  // controller's makespan-derived figure (the backing tier's standby
  // power is out of scope — documented simplification).
  sim_result.energy.read_write_pj += result.cache.backing_pj;
  sim_result.area_mm2 = config.params.area_mm2;
  return sim_result;
}

sim::CellRun<CacheResult> RunCacheSequence(
    const trace::AccessSequence& seq, std::size_t sequence_index,
    unsigned dbcs, const CachePolicy& policy,
    const sim::ExperimentOptions& options, std::string_view benchmark_name) {
  CacheConfig config = policy.MakeConfig();
  config.capacity_slots = ResolveCapacity(config, seq.num_variables());
  const rtm::RtmConfig device = sim::CellConfig(dbcs, config.capacity_slots);
  config.eviction_seed = sim::StampCellSearch(
      config.engine.strategy_options, device, options, benchmark_name,
      sequence_index, dbcs);
  // Observability rides along on the wrapped engine config; within a
  // cell, tid tells sequences apart.
  config.engine.obs = options.obs;
  config.engine.obs.tid = static_cast<std::uint32_t>(sequence_index);
  return {device, RunCache(seq, config, device)};
}

}  // namespace rtmp::cache
