// Shift-cost model (§II-B): the number of one-domain shift operations an RTM
// controller executes to serve an access sequence under a given placement.
//
// The cost between two consecutive same-DBC accesses u, v is the distance
// between their offsets (single port, the device's model), or the cheapest
// port alignment (multi-port, priced here analytically only). Accesses to
// other DBCs in between do not disturb a DBC's alignment, so the total
// decomposes into independent per-DBC walks — the identity the paper's
// Fig. 3 example uses (39 = 24 + 15).
//
// Every single-port price in the library is one walk: SinglePortWalk runs
// SinglePortStep once per access and keeps each DBC's last offset. ShiftCost
// and PerDbcShiftCost walk a Placement; ShiftCostOfSlots walks a flat slot
// table over the access runs (the stream with consecutive repeats dropped),
// which is how the GA, the random walk and the online engine's refinement
// score their candidates; the online engine's window service calls the step
// inline while it builds its request block.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "core/placement.h"
#include "rtm/config.h"
#include "trace/access_sequence.h"

namespace rtmp::core {

struct CostOptions {
  /// Paper convention kFirstAccess: each DBC's first access is free.
  rtm::InitialAlignment initial_alignment =
      rtm::InitialAlignment::kFirstAccess;
  /// Port offsets inside a DBC. One entry = the paper's single-port model
  /// (shift cost |pos(u) - pos(v)| regardless of the port's own offset),
  /// the only model the device (rtm::RtmController), the searches and the
  /// online engine accept. Several entries are priced by ShiftCost and
  /// PerDbcShiftCost alone: each access takes its cheapest port.
  std::vector<std::uint32_t> port_offsets{0};
  /// Domains per DBC. When set, placements deeper than a DBC and ports
  /// outside it are rejected (std::invalid_argument), mirroring
  /// sim::Simulate. 0 skips validation.
  std::uint32_t domains_per_dbc = 0;
};

/// Throws std::invalid_argument unless `options` has exactly one port:
/// the device, the searches and the online engine model one port per
/// track. `who` names the caller in the message.
void RequireSinglePort(const CostOptions& options, const char* who);

/// Validates `placement` against `options`: when options.domains_per_dbc is
/// set, every DBC must hold at most that many variables and every port
/// offset must lie inside the DBC (throws std::invalid_argument otherwise).
/// ShiftCost, PerDbcShiftCost and ShiftCostOfSlots apply this so the
/// analytic paths reject exactly the placements sim::Simulate rejects; with
/// domains_per_dbc unset (0) any placement is accepted.
void ValidateAgainstDomains(const Placement& placement,
                            const CostOptions& options);

/// A DBC's last offset before its first access.
inline constexpr std::int64_t kNoAccess = -1;

/// The per-access step of the single-port model. The port's own offset
/// cancels out of every inter-access distance; it only matters for a paid
/// first access (kZero alignment), where the cost is the distance from the
/// port to the variable.
struct SinglePortStep {
  std::int64_t port = 0;
  bool first_pays = false;

  /// Reads the first port offset and the initial alignment of `options`.
  explicit SinglePortStep(const CostOptions& options)
      : port(options.port_offsets.empty() ? 0 : options.port_offsets.front()),
        first_pays(options.initial_alignment ==
                   rtm::InitialAlignment::kZero) {}

  /// Shifts of one access at `offset` in a DBC whose port last faced
  /// `last` (kNoAccess before the DBC's first access); moves `last` to
  /// `offset`.
  std::uint64_t operator()(std::int64_t& last,
                           std::uint32_t offset) const noexcept {
    const auto pos = static_cast<std::int64_t>(offset);
    std::uint64_t shifts = 0;
    if (last == kNoAccess) {
      if (first_pays) {
        shifts = static_cast<std::uint64_t>(std::llabs(pos - port));
      }
    } else {
      shifts = static_cast<std::uint64_t>(std::llabs(pos - last));
    }
    last = pos;
    return shifts;
  }
};

/// The one single-port walk: for each item of `items`, reads its slot
/// through `slot_of(item)` and adds its shifts through `add(dbc, shifts)`.
/// `last` holds one entry per DBC, all kNoAccess on entry.
template <typename Items, typename SlotOf, typename Add>
void SinglePortWalk(const Items& items, SlotOf&& slot_of,
                    const SinglePortStep& step, std::span<std::int64_t> last,
                    Add&& add) {
  for (const auto& item : items) {
    const Slot slot = slot_of(item);
    add(slot.dbc, step(last[slot.dbc], slot.offset));
  }
}

/// Total shift cost of `seq` under `placement`. Every accessed variable must
/// be placed (throws std::logic_error otherwise).
[[nodiscard]] std::uint64_t ShiftCost(const trace::AccessSequence& seq,
                                      const Placement& placement,
                                      const CostOptions& options = {});

/// Per-DBC decomposition; sums to ShiftCost.
[[nodiscard]] std::vector<std::uint64_t> PerDbcShiftCost(
    const trace::AccessSequence& seq, const Placement& placement,
    const CostOptions& options = {});

/// Overwrites `runs` with the variables of `accesses`, consecutive repeats
/// dropped. A repeat faces the offset its run start left, so it costs 0
/// under every alignment and port count: walking the runs prices the
/// accesses exactly. Keeps `runs`' capacity.
void AccessRuns(std::span<const trace::Access> accesses,
                std::vector<VariableId>& runs);

/// Single-port shift cost of the access runs `runs` (see AccessRuns) under
/// a placement given in flat form: `slots[v]` is variable v's (dbc,
/// offset), as Placement::slots() holds it, and `fill[d]` the number of
/// variables in DBC d. One walk over the runs, no Placement needed.
/// Throws what ShiftCost throws: std::invalid_argument without ports or
/// when options.domains_per_dbc is set and a DBC is deeper or a port lies
/// outside it, and std::logic_error for an accessed variable whose DBC is
/// not below fill.size() (an unplaced one). Also throws
/// std::invalid_argument when `slots` misses an accessed variable and
/// std::logic_error with more than one port (use ShiftCost there).
[[nodiscard]] std::uint64_t ShiftCostOfSlots(
    std::span<const VariableId> runs, std::span<const Slot> slots,
    std::span<const std::uint32_t> fill, const CostOptions& options);

}  // namespace rtmp::core
