// Random-walk search (§III-C): sample uniformly random complete placements
// (random DBC assignment + random order inside every DBC) and keep the best.
// The paper runs 60 000 iterations — the upper bound on individuals its GA
// evaluates — to put the GA results in perspective.
//
// Under the paper's single-port cost model each candidate is drawn and
// scored in flat form (DrawRandomSlots + ShiftCostOfSlots) and built into
// a Placement only when it becomes the new best, which gives the results
// of building and scoring every candidate. A candidate costs its RNG
// draws (one shuffle plus about one inline NextBelow per variable) and one
// walk over the sequence's access runs, which skips the repeats of the
// previous access (about 60% of the OffsetStone suite's accesses).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "core/placement.h"
#include "trace/access_sequence.h"

namespace rtmp::core {

struct RwOptions {
  std::size_t iterations = 60000;
  std::uint64_t seed = 0x5EEDULL;
};

struct RwResult {
  Placement best;
  std::uint64_t best_cost = 0;
  /// Best cost after every stride-th iteration, stride =
  /// max(iterations / 100, 1), plus a final sample: (iterations - 1) /
  /// stride + 1 entries, so 150 iterations give 150 and 250 give 125.
  /// Cheap convergence curve for reports.
  std::vector<std::uint64_t> history;
  /// Candidate placements actually scored (== RwOptions::iterations); the
  /// strategy registry reports this as the search effort used.
  std::size_t evaluations = 0;
};

/// Scores candidates under `cost`. Throws std::invalid_argument on zero
/// iterations or insufficient capacity.
[[nodiscard]] RwResult RunRandomWalk(const trace::AccessSequence& seq,
                                     std::uint32_t num_dbcs,
                                     std::uint32_t capacity,
                                     const RwOptions& options = {},
                                     const CostOptions& cost = {});

}  // namespace rtmp::core
