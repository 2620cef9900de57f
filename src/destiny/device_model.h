// DESTINY-lite: circuit-level RTM parameter model.
//
// The paper obtains latency/energy/area numbers for its four iso-capacity
// RTM configurations (4 KiB, 32 nm, 32 tracks per DBC, 2/4/8/16 DBCs) from
// the DESTINY circuit simulator and lists them in Table I. DESTINY is an
// external tool we rebuild here as a calibrated analytic model:
//
//  * the four Table I configurations are reproduced EXACTLY (they are the
//    only device points any experiment in the paper consumes);
//  * other DBC counts interpolate piecewise-linearly in log2(#DBCs) and
//    extrapolate the boundary slopes.
//
// Capacity, technology node, track width and port count stay at the
// Table I values; a study of other devices sets DeviceParams directly.
#pragma once

#include <array>
#include <cstddef>

namespace rtmp::destiny {

/// Electrical/geometric parameters of one RTM configuration, in the exact
/// units of Table I.
struct DeviceParams {
  double leakage_mw = 0.0;        ///< leakage power [mW]
  double write_energy_pj = 0.0;   ///< energy per word write [pJ]
  double read_energy_pj = 0.0;    ///< energy per word read [pJ]
  double shift_energy_pj = 0.0;   ///< energy per one-domain shift [pJ]
  double read_latency_ns = 0.0;   ///< word read latency [ns]
  double write_latency_ns = 0.0;  ///< word write latency [ns]
  double shift_latency_ns = 0.0;  ///< one-domain shift latency [ns]
  double area_mm2 = 0.0;          ///< array area [mm^2]
};

/// The DBC counts evaluated in the paper (Table I columns).
inline constexpr std::array<unsigned, 4> kTableOneDbcCounts{2, 4, 8, 16};

/// Returns the published Table I column for `dbcs` in {2,4,8,16}.
/// Throws std::out_of_range for any other count.
[[nodiscard]] const DeviceParams& PaperTableOne(unsigned dbcs);

/// Number of domains per DBC in the paper's iso-capacity setup:
/// 4 KiB / 32-bit words = 1024 words spread over `dbcs` DBCs.
[[nodiscard]] unsigned PaperDomainsPerDbc(unsigned dbcs);

/// Evaluates the model at `dbcs` DBCs (> 0; throws std::invalid_argument
/// otherwise). Exact at the Table I anchors {2, 4, 8, 16}; other counts
/// interpolate in log2(dbcs) between them and extrapolate beyond.
[[nodiscard]] DeviceParams EvaluateDevice(unsigned dbcs);

}  // namespace rtmp::destiny
