// Liveliness (lifespan) analysis over access sequences.
//
// The DMA heuristic's key signal (§III-B) is which variables have pairwise
// disjoint lifespans and how much access frequency is "nested" inside a
// candidate's lifespan. These are generic trace analyses, so they live in
// the trace layer; the placement policy built on them is in core/inter/dma.
#pragma once

#include <cstdint>
#include <span>

#include "trace/access_sequence.h"
#include "trace/variable_stats.h"

namespace rtmp::trace {

/// Sum of access frequencies of the variables in `candidates` whose lifespan
/// is strictly nested within `outer`'s (Fu > F_outer and Lu < L_outer):
/// the right-hand side of Algorithm 1 line 10.
[[nodiscard]] std::uint64_t SumNestedFrequency(
    std::span<const VariableStats> stats, const VariableStats& outer,
    std::span<const VariableId> candidates);

/// True if all variables in `group` have pairwise disjoint lifespans.
[[nodiscard]] bool AllPairwiseDisjoint(std::span<const VariableStats> stats,
                                       std::span<const VariableId> group);

/// Number of unordered variable pairs with disjoint lifespans. O(n log n)
/// via sorting by first occurrence. Variables absent from the sequence are
/// ignored. Used by trace characterization reports.
[[nodiscard]] std::uint64_t CountDisjointPairs(
    std::span<const VariableStats> stats);

}  // namespace rtmp::trace
