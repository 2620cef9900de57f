// Trace-driven simulation: replay an access sequence through the RTM
// controller (serial mode, the single device model every layer shares)
// under a placement and collect the paper's metrics (shifts, runtime,
// energy breakdown, area).
#pragma once

#include <cstdint>

#include "core/placement.h"
#include "rtm/config.h"
#include "rtm/energy_model.h"
#include "trace/access_sequence.h"

namespace rtmp::sim {

/// Device activity of one replay.
struct SimulationStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t shifts = 0;
  /// Serial back-to-back replay: the sum of per-access latencies.
  double runtime_ns = 0.0;

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return reads + writes;
  }
};

struct SimulationResult {
  SimulationStats stats;
  rtm::EnergyBreakdown energy;
  double area_mm2 = 0.0;
};

/// Replays `seq` on a fresh serial controller built from `config`. The
/// placement maps each variable to (DBC, domain = offset). Throws
/// std::invalid_argument if the placement does not fit the configuration
/// (DBC count or depth).
[[nodiscard]] SimulationResult Simulate(const trace::AccessSequence& seq,
                                        const core::Placement& placement,
                                        const rtm::RtmConfig& config);

}  // namespace rtmp::sim
