// rtmlint: hot-path — every phase change prices a migration here and
// every accepted one is planned here; keep it allocation-free once the
// caller's plan is warm (resize up front, indexed writes).
#include "online/migration.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace rtmp::online {

namespace {

constexpr std::uint32_t kNoOffset = std::numeric_limits<std::uint32_t>::max();

/// The lowest and highest moved offset seen in one DBC.
struct Extent {
  std::uint32_t lo = kNoOffset;
  std::uint32_t hi = 0;

  /// Widens to `offset` when `moved`, without a branch on it.
  void Add(std::uint32_t offset, bool moved) {
    lo = std::min(lo, moved ? offset : kNoOffset);
    hi = std::max(hi, moved ? offset : 0u);
  }
  /// The sweep's steps o_2 - o_1 + ... + o_k - o_(k-1) telescope to
  /// o_k - o_1; 0 when nothing moved.
  [[nodiscard]] std::uint64_t Shifts() const { return lo <= hi ? hi - lo : 0; }
};

/// EstimateMigration and PlanMigration: one walk over `from`'s lists in
/// (dbc, offset) order finds every moved variable, the read sweep of
/// each source DBC and the write sweep of each target DBC (a sweep costs
/// the distance between its lowest and highest offset). With kPlan, the
/// moves are recorded in read order and a second walk over `to`'s lists
/// emits the writes in (dbc, offset) order. Whether a variable moved
/// follows the two placements, not a pattern a branch predictor could
/// learn, so nothing branches on it: every entry is written and the
/// cursor advances only past a moved one.
template <bool kPlan>
MigrationEstimate Walk(const core::Placement& from, const core::Placement& to,
                       MigrationPlan* plan) {
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

  // The target DBCs' write extents, on the stack for up to kStackDbcs.
  constexpr std::size_t kStackDbcs = 64;
  std::array<Extent, kStackDbcs> stack{};
  std::vector<Extent> heap;
  std::span<Extent> writes(stack.data(), to.num_dbcs());
  if (to.num_dbcs() > kStackDbcs) {
    heap.resize(to.num_dbcs());
    writes = heap;
  }
  std::fill(writes.begin(), writes.end(), Extent{});

  MigrationEstimate estimate;
  MigrationMove* moves = nullptr;
  if constexpr (kPlan) {
    plan->moves.resize(from.placed_count());
    moves = plan->moves.data();
  }
  // Reads sweep each source DBC in ascending old-offset order: walking
  // `from`'s lists yields the moves already in (dbc, offset) order ...
  std::size_t moved = 0;
  for (std::uint32_t d = 0; d < from.num_dbcs(); ++d) {
    const std::vector<trace::VariableId>& list = from.dbc(d);
    Extent reads;
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const trace::VariableId v = list[offset];
      if (!to.IsPlaced(v)) throw placed_in_one();
      const core::Slot old_slot{d, offset};
      const core::Slot new_slot = to.SlotOf(v);
      const bool is_moved = !(old_slot == new_slot);
      if constexpr (kPlan) moves[moved] = {v, old_slot, new_slot};
      moved += is_moved ? 1 : 0;
      reads.Add(offset, is_moved);
      writes[new_slot.dbc].Add(new_slot.offset, is_moved);
    }
    estimate.estimated_shifts += reads.Shifts();
  }
  for (const Extent& extent : writes) {
    estimate.estimated_shifts += extent.Shifts();
  }
  estimate.moved = moved;
  if constexpr (!kPlan) {
    return estimate;
  } else {
    plan->moves.resize(moved);
    plan->estimated_shifts = estimate.estimated_shifts;
    if (moved == 0) {
      plan->requests.clear();
      return estimate;
    }
    // ... then the buffered words are written in target-DBC sweeps,
    // which walking `to`'s lists yields in (dbc, offset) order. The
    // unconditional store after the last moved entry needs one spare
    // slot. Room for the largest possible plan is made once, so a reused
    // plan never regrows.
    plan->requests.reserve(2 * from.placed_count() + 1);
    plan->requests.resize(2 * moved + 1);
    rtm::TimedRequest* const requests = plan->requests.data();
    for (std::size_t i = 0; i < moved; ++i) {
      requests[i] = {0.0, moves[i].from.dbc, moves[i].from.offset,
                     trace::AccessType::kRead};
    }
    std::size_t written = moved;
    for (std::uint32_t d = 0; d < to.num_dbcs(); ++d) {
      const std::vector<trace::VariableId>& list = to.dbc(d);
      for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
        requests[written] = {0.0, d, offset, trace::AccessType::kWrite};
        written += from.SlotOf(list[offset]) == core::Slot{d, offset} ? 0 : 1;
      }
    }
    plan->requests.resize(2 * moved);
    return estimate;
  }
}

}  // namespace

std::uint64_t AppendSweepRequests(std::span<const core::Slot> slots,
                                  trace::AccessType type,
                                  std::vector<rtm::TimedRequest>& requests) {
  const std::size_t base = requests.size();
  requests.resize(base + slots.size());
  std::uint64_t shifts = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i > 0 && slots[i].dbc == slots[i - 1].dbc) {
      shifts += slots[i].offset - slots[i - 1].offset;
    }
    requests[base + i] =
        rtm::TimedRequest{0.0, slots[i].dbc, slots[i].offset, type};
  }
  return shifts;
}

MigrationPlan PlanMigration(const core::Placement& from,
                            const core::Placement& to) {
  MigrationPlan plan;
  PlanMigration(from, to, plan);
  return plan;
}

void PlanMigration(const core::Placement& from, const core::Placement& to,
                   MigrationPlan& plan) {
  (void)Walk<true>(from, to, &plan);
}

MigrationEstimate EstimateMigration(const core::Placement& from,
                                    const core::Placement& to) {
  return Walk<false>(from, to, nullptr);
}

std::uint64_t EstimatedSingleMoveShifts(std::uint32_t domains_per_dbc) {
  const std::uint64_t per_access = domains_per_dbc / 3;
  return std::max<std::uint64_t>(2, 2 * per_access);
}

}  // namespace rtmp::online
