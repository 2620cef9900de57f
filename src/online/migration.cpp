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

  // Every list is sized once, for the worst case that every placed
  // variable moves. Each walk writes its next entry unconditionally and
  // steps past it only when the variable moved: whether one moved
  // follows the two placements, not a pattern a branch predictor could
  // learn.
  const std::size_t placed = from.placed_count();
  MigrationPlan plan;
  plan.moves.resize(placed);
  std::vector<core::Slot> slots(placed);
  // Reads sweep each source DBC in ascending old-offset order: walking
  // `from`'s lists yields the moves already in (dbc, offset) order ...
  std::size_t moved = 0;
  for (std::uint32_t d = 0; d < from.num_dbcs(); ++d) {
    const std::vector<trace::VariableId>& list = from.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const trace::VariableId v = list[offset];
      if (!to.IsPlaced(v)) throw placed_in_one();
      const core::Slot old_slot{d, offset};
      const core::Slot new_slot = to.SlotOf(v);
      plan.moves[moved] = {v, old_slot, new_slot};
      slots[moved] = old_slot;
      moved += old_slot == new_slot ? 0 : 1;
    }
  }
  plan.moves.resize(moved);
  if (moved == 0) return plan;
  plan.requests.reserve(2 * moved);
  plan.estimated_shifts += AppendSweepRequests(
      std::span(slots).first(moved), trace::AccessType::kRead, plan.requests);

  // ... then the buffered words are written in target-DBC sweeps, which
  // walking `to`'s lists yields in (dbc, offset) order.
  std::size_t written = 0;
  for (std::uint32_t d = 0; d < to.num_dbcs(); ++d) {
    const std::vector<trace::VariableId>& list = to.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const core::Slot new_slot{d, offset};
      slots[written] = new_slot;
      written += from.SlotOf(list[offset]) == new_slot ? 0 : 1;
    }
  }
  plan.estimated_shifts +=
      AppendSweepRequests(std::span(slots).first(written),
                          trace::AccessType::kWrite, plan.requests);
  return plan;
}

std::uint64_t EstimatedSingleMoveShifts(std::uint32_t domains_per_dbc) {
  const std::uint64_t per_access = domains_per_dbc / 3;
  return std::max<std::uint64_t>(2, 2 * per_access);
}

}  // namespace rtmp::online
