// AFD — Access Frequency based Distribution (Chen et al. [2], §III-A):
// the state-of-the-art inter-DBC baseline the paper compares against.
// Variables are sorted by descending access frequency and dealt round-robin
// across DBCs, placing hot variables near each other; an intra-DBC
// heuristic then orders each DBC.
#pragma once

#include <span>
#include <vector>

#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "trace/access_sequence.h"
#include "trace/variable_stats.h"

namespace rtmp::core {

struct PlacementWorkspace;  // core/placement_workspace.h

struct AfdOptions {
  /// Intra-DBC policy applied per DBC after distribution. kNone keeps the
  /// round-robin insertion order (the layout of the paper's Fig. 3c).
  IntraHeuristic intra = IntraHeuristic::kOfu;
};

/// Variables sorted by descending frequency; ties are broken by ascending
/// variable NAME, as in the paper's Fig. 3 deal (alphabetical: DBC0 =
/// {a,g,b,d,h}). Name order matters: real benchmark identifiers are
/// uncorrelated with access time, unlike generator ids. `stats` covers
/// ids [0, stats.size()) of `seq`; throws std::invalid_argument when it
/// covers more variables than `seq` registers.
[[nodiscard]] std::vector<VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq);

/// The same order, written into `workspace.order` and returned as a view
/// of it (valid until the workspace's next use). One walk over the name
/// order, a sort of the accessed ids only and no allocation once the
/// workspace is warm.
std::span<const VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq, PlacementWorkspace& workspace);

/// Runs AFD. Throws std::invalid_argument if the variables cannot fit
/// (num_dbcs * capacity < |V|).
[[nodiscard]] Placement DistributeAfd(const trace::AccessSequence& seq,
                                      std::uint32_t num_dbcs,
                                      std::uint32_t capacity,
                                      const AfdOptions& options = {});

/// The same, with every scratch buffer taken from `workspace`.
[[nodiscard]] Placement DistributeAfd(const trace::AccessSequence& seq,
                                      std::uint32_t num_dbcs,
                                      std::uint32_t capacity,
                                      const AfdOptions& options,
                                      PlacementWorkspace& workspace);

}  // namespace rtmp::core
