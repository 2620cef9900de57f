// Shift-cost model (§II-B): the number of one-domain shift operations an RTM
// controller executes to serve an access sequence under a given placement.
//
// The cost between two consecutive same-DBC accesses u, v is the distance
// between their offsets: one port per track at offset 0, the device's model.
// Accesses to other DBCs in between do not disturb a DBC's alignment, so the
// total decomposes into independent per-DBC walks — the identity the
// paper's Fig. 3 example uses (39 = 24 + 15).
//
// Every single-port price in the library is one walk: SinglePortWalk runs
// SinglePortStep once per access and keeps each DBC's last offset. ShiftCost
// and PerDbcShiftCost walk a Placement; ShiftCostOfSlots walks a flat slot
// table over the access runs (the stream with consecutive repeats dropped),
// which is how the GA, the random walk and the online engine's refinement
// score their candidates; the online engine's window service calls the step
// inline while it builds its request block. MultiPortShiftCost prices
// several ports per track analytically, for the ablation that asks what
// extra ports would buy; nothing else models them.
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
};

/// A DBC's last offset before its first access.
inline constexpr std::int64_t kNoAccess = -1;

/// The per-access step of the single-port model. The port sits at offset
/// 0, so a paid first access (kZero alignment) costs the variable's offset.
struct SinglePortStep {
  bool first_pays = false;

  /// Reads the initial alignment of `options`.
  explicit SinglePortStep(const CostOptions& options)
      : first_pays(options.initial_alignment == rtm::InitialAlignment::kZero) {}

  /// Shifts of one access at `offset` in a DBC whose port last faced
  /// `last` (kNoAccess before the DBC's first access); moves `last` to
  /// `offset`.
  std::uint64_t operator()(std::int64_t& last,
                           std::uint32_t offset) const noexcept {
    const auto pos = static_cast<std::int64_t>(offset);
    std::uint64_t shifts = 0;
    if (last == kNoAccess) {
      if (first_pays) shifts = static_cast<std::uint64_t>(pos);
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

/// Per-DBC shift cost with several ports per track at `port_offsets`,
/// priced analytically (the device has one port). All tracks of a DBC
/// shift in lock-step, so one alignment a per DBC holds its state: offset
/// x faces the port at offset o iff a == x - o. Each access takes the
/// cheapest port, the lower port index on ties; before a DBC's first
/// access under kFirstAccess every port is free, so port 0 is taken, and
/// under kZero the ports face their own offsets. One port at offset 0
/// gives PerDbcShiftCost; one port anywhere does under kFirstAccess.
/// Throws std::invalid_argument without ports and std::logic_error for an
/// unplaced accessed variable.
[[nodiscard]] std::vector<std::uint64_t> MultiPortShiftCost(
    const trace::AccessSequence& seq, const Placement& placement,
    std::span<const std::uint32_t> port_offsets,
    const CostOptions& options = {});

/// Overwrites `runs` with the variables of `accesses`, consecutive repeats
/// dropped. A repeat faces the offset its run start left, so it costs 0
/// under every alignment: walking the runs prices the accesses exactly.
/// Keeps `runs`' capacity.
void AccessRuns(std::span<const trace::Access> accesses,
                std::vector<VariableId>& runs);

/// Single-port shift cost of the access runs `runs` (see AccessRuns) under
/// a placement of `num_dbcs` DBCs given in flat form: `slots[v]` is
/// variable v's (dbc, offset), as Placement::slots() holds it. One walk
/// over the runs, no Placement needed. Throws what ShiftCost throws,
/// std::logic_error for an accessed variable whose DBC is not below
/// num_dbcs (an unplaced one), and std::invalid_argument when `slots`
/// misses an accessed variable.
[[nodiscard]] std::uint64_t ShiftCostOfSlots(
    std::span<const VariableId> runs, std::span<const Slot> slots,
    std::uint32_t num_dbcs, const CostOptions& options);

}  // namespace rtmp::core
