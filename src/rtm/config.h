// RTM organization (cf. paper Fig. 2): a flat array of DBCs, each DBC
// being a group of nanotracks of K domains accessed through one port at
// domain offset 0, as in the paper's evaluation. Shift counts depend only
// on the DBC count and the domains per DBC, so no bank/subarray hierarchy
// is modelled; the word width (32 tracks) matters only to energy, which
// the Table I `params` already include. Several ports per track are
// priced analytically only (core::MultiPortShiftCost).
#pragma once

#include <cstdint>

#include "destiny/device_model.h"

namespace rtmp::rtm {

/// Where a DBC's port alignment starts.
///
/// kFirstAccess matches the paper's cost arithmetic (the first access in
/// each DBC is free; Fig. 3 example: AFD = 39, DMA = 11 shifts).
/// kZero matches cold hardware: every track starts aligned at domain 0 and
/// the first access pays the full distance.
enum class InitialAlignment : std::uint8_t { kFirstAccess, kZero };

struct RtmConfig {
  unsigned dbcs = 4;               ///< DBCs in the array
  unsigned domains_per_dbc = 256;  ///< K addressable words per DBC
  InitialAlignment initial_alignment = InitialAlignment::kFirstAccess;
  /// Circuit parameters (energies, latencies, leakage, area).
  destiny::DeviceParams params;

  [[nodiscard]] unsigned total_dbcs() const noexcept { return dbcs; }

  /// Total addressable words.
  [[nodiscard]] std::uint64_t word_capacity() const noexcept {
    return static_cast<std::uint64_t>(total_dbcs()) * domains_per_dbc;
  }

  /// Throws std::invalid_argument on a zero-sized dimension.
  void Validate() const;

  /// The paper's evaluated configuration for `dbcs` in {2,4,8,16}:
  /// 1024 words (4 KiB of 32-bit words) split into 1024/dbcs domains per
  /// DBC, one port, Table I circuit parameters, paper cost-model
  /// alignment.
  [[nodiscard]] static RtmConfig Paper(unsigned dbcs);
};

}  // namespace rtmp::rtm
