// DMA — the paper's sequence-aware inter-DBC distribution (§III-B,
// Algorithm 1).
//
// The heuristic performs a liveliness analysis on the trace, greedily
// extracts a set Vdj of variables with pairwise disjoint lifespans that
// maximizes self-accesses (a variable joins Vdj only if its own access
// frequency exceeds the total frequency of the variables whose lifespans
// nest strictly inside its own), stores Vdj in K = ceil(|Vdj|/N) dedicated
// DBCs in access order, and deals the remaining variables across the other
// DBCs by descending access frequency, finally applying an intra-DBC
// heuristic there. DBCs holding only disjoint variables in access order
// incur at most |Vdj| - 1 shifts over the whole trace.
#pragma once

#include <cstdint>
#include <vector>

#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "trace/access_sequence.h"
#include "trace/variable_stats.h"

namespace rtmp::core {

struct PlacementWorkspace;  // core/placement_workspace.h

struct DmaOptions {
  /// Intra-DBC policy for the NON-disjoint DBCs (Algorithm 1 lines 22-23).
  /// Disjoint DBCs always keep access order. kOfu gives the paper's
  /// DMA-OFU, kChen DMA-Chen, kShiftsReduce DMA-SR.
  IntraHeuristic intra = IntraHeuristic::kOfu;
};

/// Algorithm 1 lines 5-12: the greedy disjoint-set selection. Returns the
/// selected variables in ascending first-occurrence order. Variables that
/// never appear in the sequence are never selected. O(m log m) for m
/// variables that occur: two sorts of the candidates and one Fenwick-tree
/// sweep give every candidate's nested frequency (line 10). Expects the
/// stats of one sequence (or some of them blanked to absent), so that no
/// two variables share a first or a last occurrence.
[[nodiscard]] std::vector<VariableId> SelectDisjointVariables(
    std::span<const trace::VariableStats> stats);

/// The same selection, written into `workspace.disjoint` and returned as
/// a view of it; the candidate, rank, Fenwick and nested-frequency arrays
/// come from the workspace too. `stats` must not be workspace storage
/// other than `workspace.stats`.
std::span<const VariableId> SelectDisjointVariables(
    std::span<const trace::VariableStats> stats,
    PlacementWorkspace& workspace);

struct DmaResult {
  Placement placement;
  /// Vdj in selection (= first-occurrence) order, after any capacity trim.
  std::vector<VariableId> disjoint;
  /// K: how many leading DBCs hold the disjoint variables.
  std::uint32_t disjoint_dbc_count = 0;
};

/// Runs the full Algorithm 1. Throws std::invalid_argument if the variables
/// cannot fit (num_dbcs * capacity < |V|).
///
/// Deviations from the pseudo-code, which leaves these cases open:
///  * if Vdj needs more than num_dbcs - 1 DBCs while non-disjoint variables
///    exist, Vdj is trimmed (lowest-frequency members move back to Vndj) so
///    at least one DBC remains for them;
///  * with a single DBC and non-disjoint variables present, DMA degenerates
///    to a frequency deal into that DBC followed by the intra heuristic
///    (there is no room for a dedicated disjoint DBC); if ALL variables are
///    disjoint they keep pure access order instead;
///  * when the non-disjoint DBCs run out of slots under tight capacities,
///    the remaining variables spill into the free tail slots of the
///    disjoint DBCs (the disjoint prefix keeps its access order; the
///    <= |Vdj|-1 shift bound then no longer applies to those DBCs).
///
/// Cost: O(V + |S| + m log m) for V variables, |S| accesses and m
/// accessed variables, plus the intra heuristic's own work on the
/// accessed variables (see ApplyIntra). The stats pass lists the accessed
/// variables in first-occurrence order, so the selection never scans the
/// idle ids. A never-accessed variable costs one walk in name order (the
/// frequency order and the deal) and, in the DBCs the intra step
/// reorders, one pass over ascending ids that appends it after the
/// accessed ones, where ApplyIntra's ascending-id tail puts it: it is
/// never sorted, reordered or moved.
[[nodiscard]] DmaResult DistributeDma(const trace::AccessSequence& seq,
                                      std::uint32_t num_dbcs,
                                      std::uint32_t capacity,
                                      const DmaOptions& options = {});

/// The same placement, with every scratch buffer taken from `workspace`:
/// after a call of the same shape, the returned Placement's own buffers
/// are the only allocations. Vdj (after any capacity trim) is left in
/// `workspace.disjoint`. This is the form the strategy registry runs
/// when a PlacementRequest carries a workspace (the online re-seed).
[[nodiscard]] Placement DistributeDma(const trace::AccessSequence& seq,
                                      std::uint32_t num_dbcs,
                                      std::uint32_t capacity,
                                      const DmaOptions& options,
                                      PlacementWorkspace& workspace);

}  // namespace rtmp::core
