#include "online/migration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cost_evaluator.h"

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

TrimmedMigration TrimMigration(const core::Placement& from,
                               const core::Placement& to,
                               const trace::AccessSequence& window,
                               const core::CostOptions& cost,
                               double fraction, std::uint64_t min_benefit) {
  if (!std::isfinite(fraction) || fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("TrimMigration: fraction must be in [0, 1]");
  }
  TrimmedMigration out;
  MigrationPlan full = PlanMigration(from, to);
  if (full.moves.empty() || (fraction >= 1.0 && min_benefit == 0)) {
    // Nothing to trim: the full diff is the plan.
    out.placement = to;
    out.plan = std::move(full);
    return out;
  }

  const auto budget = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(full.moves.size())));

  core::CostEvaluator evaluator(window, cost);
  evaluator.Bind(from);
  const std::uint64_t base_cost = evaluator.Cost();

  // Rank the full plan's moves by their stand-alone peek benefit against
  // `from` (benefit descending, variable id ascending — deterministic).
  // Same-DBC reorders and moves into a currently full DBC are skipped:
  // the greedy subset cannot realize them in isolation.
  struct Candidate {
    trace::VariableId variable = 0;
    std::uint32_t to_dbc = 0;
    std::uint64_t benefit = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(full.moves.size());
  for (const MigrationMove& move : full.moves) {
    if (move.to.dbc == move.from.dbc) continue;
    if (evaluator.placement().FreeIn(move.to.dbc) == 0) continue;
    const std::uint64_t peek = evaluator.PeekMove(move.variable, move.to.dbc);
    ++out.evaluations;
    candidates.push_back({move.variable, move.to.dbc,
                          base_cost > peek ? base_cost - peek : 0});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.benefit != b.benefit) return a.benefit > b.benefit;
              return a.variable < b.variable;
            });

  // Greedy commit, re-scored at apply time; every kept move must clear
  // the benefit threshold on the ACTUAL delta, mirroring the engine's
  // refinement accept rule.
  const std::uint64_t required = std::max<std::uint64_t>(1, min_benefit);
  std::size_t kept = 0;
  for (const Candidate& candidate : candidates) {
    if (kept >= budget) break;
    if (evaluator.placement().FreeIn(candidate.to_dbc) == 0) continue;
    const std::uint64_t before = evaluator.Cost();
    const std::uint64_t after =
        evaluator.ApplyMove(candidate.variable, candidate.to_dbc);
    ++out.evaluations;
    if (after >= before || before - after < required) {
      evaluator.Undo();
      continue;
    }
    ++kept;
  }

  out.placement = evaluator.placement();
  out.plan = PlanMigration(from, out.placement);
  if (out.plan.estimated_shifts > full.estimated_shifts) {
    // Gap compaction made the subset dearer than the whole diff (see
    // TrimmedMigration::plan) — a trim must never cost more, so fall
    // back to the full plan.
    out.placement = to;
    out.plan = std::move(full);
  }
  return out;
}

}  // namespace rtmp::online
