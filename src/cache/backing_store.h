// The modeled memory tier behind the RTM cache (hybrid-memory mode).
//
// In the capacity-constrained mode (cache/engine.h) the racetrack device
// holds only a bounded resident set; a miss pulls the word up from this
// slower backing store (a fill) and a dirty eviction pushes the stale
// copy back down (a writeback). The device side of that traffic — the
// read sweep that drains victims and the write sweep that lands incoming
// words — is real controller work and is charged there; THIS model
// accounts for the far side of the transfer: the latency the backing
// tier adds to the end-to-end runtime and the energy it burns per moved
// word.
//
// The model is deliberately flat (fixed per-word charges, no banking or
// queueing): the reproduction's subject is the racetrack tier, and the
// backing store only needs to be expensive enough that eviction-policy
// quality shows up in the totals. The charges approximate a DRAM-class
// tier a few times slower than the device's word access.
#pragma once

#include <cstdint>

namespace rtmp::cache {

/// Backing read latency per filled word.
inline constexpr double kBackingFillNs = 50.0;
/// Backing write latency per written-back word.
inline constexpr double kBackingWritebackNs = 50.0;
/// Backing read energy per filled word.
inline constexpr double kBackingFillPj = 15.0;
/// Backing write energy per written-back word.
inline constexpr double kBackingWritebackPj = 15.0;

/// Transfer time the backing tier spends on `fills` fills and
/// `writebacks` writebacks. Reported separately from the device makespan
/// (the device timeline stays pure); cache cells fold it into their
/// runtime as a serial penalty.
[[nodiscard]] constexpr double BackingBusyNs(std::uint64_t fills,
                                             std::uint64_t writebacks) {
  return static_cast<double>(fills) * kBackingFillNs +
         static_cast<double>(writebacks) * kBackingWritebackNs;
}

/// Energy the backing tier burns on the same transfers.
[[nodiscard]] constexpr double BackingEnergyPj(std::uint64_t fills,
                                               std::uint64_t writebacks) {
  return static_cast<double>(fills) * kBackingFillPj +
         static_cast<double>(writebacks) * kBackingWritebackPj;
}

}  // namespace rtmp::cache
