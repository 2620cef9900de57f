#include "online/migration.h"

#include <algorithm>
#include <stdexcept>

namespace rtmp::online {

std::uint64_t AppendSweepRequests(std::span<const core::Slot> slots,
                                  trace::AccessType type,
                                  std::vector<rtm::TimedRequest>& requests) {
  std::uint64_t shifts = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0 && slots[i].dbc == slots[i - 1].dbc) {
      shifts += slots[i].offset - slots[i - 1].offset;
    }
    requests.push_back(rtm::TimedRequest{0.0, slots[i].dbc, slots[i].offset,
                                         type});
  }
  return shifts;
}

MigrationPlan PlanMigration(const core::Placement& from,
                            const core::Placement& to) {
  if (from.num_variables() != to.num_variables()) {
    throw std::invalid_argument(
        "PlanMigration: placements cover different variable spaces");
  }
  const auto placed_in_one = [] {
    return std::invalid_argument(
        "PlanMigration: variable placed in only one placement");
  };
  // Equal counts plus "every variable placed in `from` is placed in `to`"
  // (checked during the walk) means both place the same variables.
  if (from.placed_count() != to.placed_count()) throw placed_in_one();

  // Reads sweep each source DBC in ascending old-offset order: walking
  // `from`'s lists yields the moves already in (dbc, offset) order ...
  MigrationPlan plan;
  std::vector<core::Slot> slots;
  for (std::uint32_t d = 0; d < from.num_dbcs(); ++d) {
    const std::vector<trace::VariableId>& list = from.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const trace::VariableId v = list[offset];
      if (!to.IsPlaced(v)) throw placed_in_one();
      const core::Slot old_slot{d, offset};
      const core::Slot new_slot = to.SlotOf(v);
      if (old_slot == new_slot) continue;
      plan.moves.push_back({v, old_slot, new_slot});
      slots.push_back(old_slot);
    }
  }
  if (plan.moves.empty()) return plan;
  plan.requests.reserve(2 * plan.moves.size());
  plan.estimated_shifts +=
      AppendSweepRequests(slots, trace::AccessType::kRead, plan.requests);

  // ... then the buffered words are written in target-DBC sweeps, which
  // walking `to`'s lists yields in (dbc, offset) order.
  slots.clear();
  for (std::uint32_t d = 0; d < to.num_dbcs(); ++d) {
    const std::vector<trace::VariableId>& list = to.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const core::Slot new_slot{d, offset};
      if (from.SlotOf(list[offset]) != new_slot) slots.push_back(new_slot);
    }
  }
  plan.estimated_shifts +=
      AppendSweepRequests(slots, trace::AccessType::kWrite, plan.requests);
  return plan;
}

std::uint64_t EstimatedSingleMoveShifts(std::uint32_t domains_per_dbc) {
  const std::uint64_t per_access = domains_per_dbc / 3;
  return std::max<std::uint64_t>(2, 2 * per_access);
}

}  // namespace rtmp::online
