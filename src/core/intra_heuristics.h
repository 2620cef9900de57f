// Intra-DBC placement heuristics (§II-B): given the accesses that fall into
// one DBC, pick the variable order (= offsets) that minimizes the walk cost.
// This is the classic single-offset-assignment-style problem; the total cost
// of an order equals sum over access-graph edges of weight x |offset diff|.
//
// Implemented policies:
//  * kNone — keep the order in which the inter-DBC policy inserted the
//    variables (used by the paper's Fig. 3 illustration and by DMA's
//    disjoint DBCs, whose access order must be preserved).
//  * kOfu — order of first use, the paper's baseline intra policy.
//  * kChen — greedy chain growth after Chen et al. (TVLSI'16): seed with
//    the most frequently accessed variable, then repeatedly take the
//    unplaced variable most strongly connected to the placed set and append
//    it to the end it is more attached to.
//  * kShiftsReduce — bidirectional grouping after Khan et al.
//    (ShiftsReduce): like kChen but with distance-discounted attachment
//    scores for the end choice, followed by an adjacent-transposition
//    hill-climb on the exact edge-sum objective. The cited paper's exact
//    pseudo-code is not reproduced in the DATE paper; this implementation
//    keeps its two documented ingredients (two-ended growth, local
//    refinement) and consistently dominates kChen, as in the paper.
//  * kGreedyEdge — the classic maximum-weight-path construction from the
//    offset-assignment literature the paper builds on (Junger & Mallach
//    [4] model SOA as a TSP): accept edges in descending weight order
//    whenever they keep the accepted set a union of simple paths, then
//    concatenate the paths. A fourth policy for the "interplay of inter-
//    and intra-DBC placements" analysis (paper contribution 3).
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/placement.h"
#include "trace/access_sequence.h"

namespace rtmp::core {

struct PlacementWorkspace;  // core/placement_workspace.h

enum class IntraHeuristic { kNone, kOfu, kChen, kShiftsReduce, kGreedyEdge };

[[nodiscard]] std::string_view ToString(IntraHeuristic heuristic) noexcept;

/// Orders `vars` for one DBC given the DBC's restricted access list.
/// `num_variables` is the size of the global variable space (ids in
/// `accesses`/`vars` are global). Variables in `vars` that never appear in
/// `accesses` are appended at the end in ascending id order. Throws
/// std::invalid_argument when an id in `accesses` or `vars` is >=
/// `num_variables`, or when `vars` lists an id twice.
[[nodiscard]] std::vector<VariableId> OrderVariables(
    IntraHeuristic heuristic, std::span<const trace::Access> accesses,
    std::span<const VariableId> vars, std::size_t num_variables);

/// Reorders DBCs [first_dbc, end_dbc) of `placement` in place using
/// `heuristic`: each DBC with at least two variables gets the order
/// OrderVariables returns for the accesses of `seq` that fall into it.
/// DBCs outside the range, and DBCs with fewer than two variables, keep
/// their order; kNone changes nothing.
///
/// Cost: O(V + |S| + sum over DBCs of the heuristic's own work) for V =
/// seq.num_variables() and |S| = seq.size(), whatever the number of reordered
/// DBCs. One DBC lookup and one local-id map by global id are shared by every
/// DBC and hold entries only for the reordered DBCs' variables; each DBC's
/// never-accessed tail comes from one sweep over ids, skipped when every
/// variable of the range is accessed. kOfu reads the whole order off one scan
/// of `seq` (first use per DBC) and builds no adjacency; the other heuristics
/// add one more scan that buckets every DBC's accesses into a single |S|-sized
/// buffer of 32-bit local ids. From it, each DBC of n accessed variables and
/// |S_d| accesses builds its frequencies and its transition edges (a compressed
/// adjacency, every list in ascending neighbor order) in O(n + |S_d|): two
/// stable counting passes order the transitions, with no comparison sort. The
/// scratch buffers are shared by every DBC. The heuristic's own work is its
/// chain growth: O(n^2 + E) for kChen and kShiftsReduce (E = distinct
/// transition pairs; the ShiftsReduce scores need no sort) plus ShiftsReduce's
/// bounded refinement passes, and O(E log E) for kGreedyEdge's edge sort.
///
/// Throws std::invalid_argument when first_dbc > end_dbc, end_dbc >
/// placement.num_dbcs(), or a reordered DBC holds an id >=
/// seq.num_variables().
void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first_dbc,
                std::uint32_t end_dbc);

/// The same, with every scratch buffer taken from `workspace`: once the
/// workspace has grown to the call's size, kNone, kOfu, kChen and
/// kShiftsReduce allocate nothing (kGreedyEdge still builds its edge
/// list and path fragments).
void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first_dbc,
                std::uint32_t end_dbc, PlacementWorkspace& workspace);

/// ApplyIntra over the single DBC `dbc`.
void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t dbc);

}  // namespace rtmp::core
