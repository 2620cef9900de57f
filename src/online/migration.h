// Migration planning: the variable moves between two placements and the
// device traffic that realizes them.
//
// Re-placement is not free. When the online engine swaps placement A for
// placement B, every variable whose slot changed must physically move:
// its word is read at the old (DBC, domain) location and written at the
// new one, and both operations shift the racetracks like any other
// access. The planner turns a placement diff into exactly that request
// stream, ordered for minimal shifting (one ascending-offset sweep per
// source DBC for the reads, then one per target DBC for the writes —
// the order a migration buffer in the controller would use), plus an
// analytic shift estimate the engine's accept decision can weigh against
// the projected window savings before committing.
//
// The accept decision needs only how many variables move and the
// estimate, so EstimateMigration makes the same two sweep walks without
// materializing anything; PlanMigration builds the moves and requests,
// into a caller-owned plan, only for a migration that will run.
//
// The estimate prices each per-DBC sweep with the paper's
// first-access-free convention (distance between consecutive sorted
// offsets); the true charge additionally depends on where each track
// happens to be aligned when the migration runs, which only the
// controller knows — the engine therefore charges the actual traffic by
// executing MigrationPlan::requests on its live rtm::RtmController.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/placement.h"
#include "rtm/controller.h"
#include "trace/access_sequence.h"

namespace rtmp::online {

/// One variable whose slot differs between the two placements.
struct MigrationMove {
  trace::VariableId variable = 0;
  core::Slot from{};
  core::Slot to{};
};

struct MigrationPlan {
  /// Moved variables in read order (source DBC, then old offset).
  std::vector<MigrationMove> moves;
  /// The realizing device traffic: one read per move at the old slot
  /// (source-DBC ascending-offset sweeps), then one write per move at
  /// the new slot (target-DBC sweeps). All arrivals are 0 (back-to-back;
  /// the controller serializes them on the shared channel).
  std::vector<rtm::TimedRequest> requests;
  /// Analytic shift estimate of `requests` under the first-access-free
  /// convention (see header comment).
  std::uint64_t estimated_shifts = 0;

  [[nodiscard]] bool empty() const noexcept { return moves.empty(); }
};

/// Appends one ascending-offset sweep per DBC over `slots` to `requests`
/// — one request of `type` per slot, arrivals 0 — and returns the
/// sweep's first-access-free shift estimate. `slots` must already be
/// sorted by (dbc, offset). These are the sweeps PlanMigration's read
/// and write phases issue; the cache tier (cache/engine.h) plans its
/// evict+fill traffic as the same kind of sweeps a migration buffer
/// would issue.
std::uint64_t AppendSweepRequests(std::span<const core::Slot> slots,
                                  trace::AccessType type,
                                  std::vector<rtm::TimedRequest>& requests);

/// What a migration from `from` to `to` would cost, without its plan.
struct MigrationEstimate {
  /// Variables whose slot differs: PlanMigration's moves.size().
  std::size_t moved = 0;
  /// PlanMigration's estimated_shifts.
  std::uint64_t estimated_shifts = 0;
};

/// Diffs `to` against `from` and plans the realizing traffic. The two
/// placements must cover the same variable space; a variable placed in
/// one but not the other throws std::invalid_argument (the engine grows
/// both sides in lock-step). Unmoved variables produce no traffic.
[[nodiscard]] MigrationPlan PlanMigration(const core::Placement& from,
                                          const core::Placement& to);

/// The same plan written into `plan`, whose buffers are reused: a caller
/// that keeps one plan allocates only when a migration outgrows every
/// earlier one. On a throw `plan` holds unspecified contents.
void PlanMigration(const core::Placement& from, const core::Placement& to,
                   MigrationPlan& plan);

/// PlanMigration's (moves.size(), estimated_shifts) from the same two
/// walks over both placements' lists, with no allocation; throws what
/// PlanMigration throws. The online engine decides on this and plans
/// only a migration it will charge.
[[nodiscard]] MigrationEstimate EstimateMigration(const core::Placement& from,
                                                  const core::Placement& to);

/// Analytic per-move charge used by the engine's incremental-refinement
/// accept rule: moving one variable in isolation costs about one read
/// plus one write at an average alignment distance of floor(K/3) each
/// (2 * floor(K/3), at least 2). Deliberately conservative — a
/// refinement move must promise more window savings than this to be
/// worth committing.
[[nodiscard]] std::uint64_t EstimatedSingleMoveShifts(
    std::uint32_t domains_per_dbc);

}  // namespace rtmp::online
