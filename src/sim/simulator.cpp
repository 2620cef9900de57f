#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "core/cost_model.h"
#include "rtm/controller.h"

namespace rtmp::sim {

SimulationResult Simulate(const trace::AccessSequence& seq,
                          const core::Placement& placement,
                          const rtm::RtmConfig& config) {
  if (placement.num_dbcs() != config.total_dbcs()) {
    throw std::invalid_argument("Simulate: placement/config DBC mismatch");
  }
  for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
    if (placement.dbc(d).size() > config.domains_per_dbc) {
      throw std::invalid_argument("Simulate: placement deeper than DBC");
    }
  }
  // Serial mode never reads the lookahead ring, so feeding the controller
  // in fixed-size chunks is exact, and the stack buffer keeps memory flat
  // however long the sequence is.
  rtm::RtmController controller(config, rtm::ControllerConfig{});
  constexpr std::size_t kChunk = 512;
  std::array<rtm::TimedRequest, kChunk> chunk;
  const auto& accesses = seq.accesses();
  for (std::size_t begin = 0; begin < accesses.size(); begin += kChunk) {
    const std::size_t size = std::min(kChunk, accesses.size() - begin);
    for (std::size_t i = 0; i < size; ++i) {
      const trace::Access& access = accesses[begin + i];
      const core::Slot slot = placement.SlotOf(access.variable);
      chunk[i] = rtm::TimedRequest{0.0, slot.dbc, slot.offset, access.type};
    }
    controller.ExecuteBatch(std::span(chunk.data(), size));
  }
  const rtm::ControllerStats& stats = controller.stats();
  SimulationResult result;
  result.stats.reads = stats.reads;
  result.stats.writes = stats.writes;
  result.stats.shifts = stats.shifts;
  result.stats.runtime_ns = stats.makespan_ns;
  result.energy = controller.Energy();
  result.area_mm2 = config.params.area_mm2;
  return result;
}

bool SimulatorMatchesCostModel(const trace::AccessSequence& seq,
                               const core::Placement& placement,
                               const rtm::RtmConfig& config) {
  core::CostOptions options;
  options.initial_alignment = config.initial_alignment;
  options.domains_per_dbc = config.domains_per_dbc;
  const std::uint64_t analytic = core::ShiftCost(seq, placement, options);
  return Simulate(seq, placement, config).stats.shifts == analytic;
}

}  // namespace rtmp::sim
