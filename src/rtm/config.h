// RTM organization (cf. paper Fig. 2): a flat array of DBCs, each DBC
// being a group of nanotracks of K domains accessed through one or more
// ports. Shift counts depend only on the DBC count, the domains per DBC
// and the ports, so no bank/subarray hierarchy is modelled; the word
// width matters only to energy, which destiny::DeviceQuery folds into
// `params`.
#pragma once

#include <cstdint>
#include <vector>

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
  unsigned ports_per_track = 1;
  /// Port positions within [0, domains_per_dbc); empty derives evenly
  /// spaced offsets (single port at 0; two ports at K/4 and 3K/4, ...).
  std::vector<std::uint32_t> port_offsets;
  InitialAlignment initial_alignment = InitialAlignment::kFirstAccess;
  /// Circuit parameters (energies, latencies, leakage, area).
  destiny::DeviceParams params;

  [[nodiscard]] unsigned total_dbcs() const noexcept { return dbcs; }

  /// Total addressable words.
  [[nodiscard]] std::uint64_t word_capacity() const noexcept {
    return static_cast<std::uint64_t>(total_dbcs()) * domains_per_dbc;
  }

  /// Port offsets actually in effect (derived when port_offsets is empty).
  [[nodiscard]] std::vector<std::uint32_t> EffectivePortOffsets() const;

  /// Throws std::invalid_argument when structurally inconsistent
  /// (zero-sized dimensions, ports out of range, duplicate ports).
  void Validate() const;

  /// The paper's evaluated configuration for `dbcs` in {2,4,8,16}:
  /// 1024 words (4 KiB of 32-bit words) split into 1024/dbcs domains per
  /// DBC, one port, Table I circuit parameters, paper cost-model
  /// alignment.
  [[nodiscard]] static RtmConfig Paper(unsigned dbcs);
};

}  // namespace rtmp::rtm
