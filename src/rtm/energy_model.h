// Energy accounting in the paper's terms (Fig. 5): leakage energy
// (leakage power x runtime), read/write energy, and shift energy.
#pragma once

#include <cstdint>

#include "destiny/device_model.h"

namespace rtmp::rtm {

/// Operation counts plus the runtime they imply.
struct ActivityCounts {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t shifts = 0;
  double runtime_ns = 0.0;
};

/// Energy totals in pJ. 1 mW x 1 ns = 1 pJ, so leakage_pj =
/// leakage_mw * runtime_ns with no further unit conversion.
struct EnergyBreakdown {
  double leakage_pj = 0.0;
  double read_write_pj = 0.0;
  double shift_pj = 0.0;

  [[nodiscard]] double total_pj() const noexcept {
    return leakage_pj + read_write_pj + shift_pj;
  }
};

/// Computes the breakdown for the given activity on the given device.
[[nodiscard]] EnergyBreakdown ComputeEnergy(
    const destiny::DeviceParams& params, const ActivityCounts& activity);

}  // namespace rtmp::rtm
