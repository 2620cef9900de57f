#include "destiny/device_model.h"

#include <cmath>
#include <stdexcept>

namespace rtmp::destiny {

namespace {

// Table I of the paper, one entry per DBC count {2, 4, 8, 16}.
constexpr std::array<DeviceParams, 4> kTableOne{{
    // leakage, E_wr, E_rd, E_sh, t_rd, t_wr, t_sh, area
    {3.39, 3.42, 2.26, 2.18, 0.81, 1.08, 0.99, 0.0159},
    {4.33, 3.65, 2.39, 2.03, 0.84, 1.14, 0.92, 0.0186},
    {6.56, 3.79, 2.47, 1.97, 0.86, 1.17, 0.86, 0.0226},
    {8.94, 3.94, 2.54, 1.86, 0.89, 1.20, 0.78, 0.0279},
}};

std::size_t AnchorIndex(unsigned dbcs) {
  for (std::size_t i = 0; i < kTableOneDbcCounts.size(); ++i) {
    if (kTableOneDbcCounts[i] == dbcs) return i;
  }
  throw std::out_of_range("PaperTableOne: DBC count not in {2,4,8,16}");
}

/// Piecewise-linear interpolation of an anchored parameter in log2(dbcs),
/// extrapolating boundary segments.
double InterpolateLog2(double log2_dbcs, const std::array<double, 4>& values) {
  // Anchors sit at log2(dbcs) = 1, 2, 3, 4.
  constexpr double kFirst = 1.0;
  constexpr double kLast = 4.0;
  double x = log2_dbcs;
  std::size_t lo = 0;
  if (x <= kFirst) {
    lo = 0;
  } else if (x >= kLast) {
    lo = 2;
  } else {
    lo = static_cast<std::size_t>(std::floor(x - kFirst));
  }
  const double x0 = kFirst + static_cast<double>(lo);
  const double t = x - x0;
  return values[lo] + (values[lo + 1] - values[lo]) * t;
}

std::array<double, 4> Column(double DeviceParams::* field) {
  return {kTableOne[0].*field, kTableOne[1].*field, kTableOne[2].*field,
          kTableOne[3].*field};
}

}  // namespace

const DeviceParams& PaperTableOne(unsigned dbcs) {
  return kTableOne[AnchorIndex(dbcs)];
}

unsigned PaperDomainsPerDbc(unsigned dbcs) {
  if (dbcs == 0) throw std::invalid_argument("DBC count must be positive");
  constexpr unsigned kTotalWords = 1024;  // 4 KiB of 32-bit words
  return kTotalWords / dbcs;
}

DeviceParams EvaluateDevice(unsigned dbcs) {
  if (dbcs == 0) {
    throw std::invalid_argument("EvaluateDevice: DBC count must be positive");
  }
  const double log2_dbcs = std::log2(static_cast<double>(dbcs));

  DeviceParams p;
  p.leakage_mw = InterpolateLog2(log2_dbcs, Column(&DeviceParams::leakage_mw));
  p.write_energy_pj =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::write_energy_pj));
  p.read_energy_pj =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::read_energy_pj));
  p.shift_energy_pj =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::shift_energy_pj));
  p.read_latency_ns =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::read_latency_ns));
  p.write_latency_ns =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::write_latency_ns));
  p.shift_latency_ns =
      InterpolateLog2(log2_dbcs, Column(&DeviceParams::shift_latency_ns));
  p.area_mm2 = InterpolateLog2(log2_dbcs, Column(&DeviceParams::area_mm2));
  return p;
}

}  // namespace rtmp::destiny
