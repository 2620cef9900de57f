#include "rtm/energy_model.h"

namespace rtmp::rtm {

EnergyBreakdown ComputeEnergy(const destiny::DeviceParams& params,
                              const ActivityCounts& activity) {
  EnergyBreakdown energy;
  energy.leakage_pj = params.leakage_mw * activity.runtime_ns;
  energy.read_write_pj =
      static_cast<double>(activity.reads) * params.read_energy_pj +
      static_cast<double>(activity.writes) * params.write_energy_pj;
  energy.shift_pj =
      static_cast<double>(activity.shifts) * params.shift_energy_pj;
  return energy;
}

}  // namespace rtmp::rtm
