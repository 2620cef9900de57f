#include "core/multi_dma.h"

#include <algorithm>
#include <stdexcept>

#include "core/inter_afd.h"
#include "core/placement_workspace.h"
#include "trace/variable_stats.h"

namespace rtmp::core {

MultiDmaResult DistributeMultiDma(const trace::AccessSequence& seq,
                                  std::uint32_t num_dbcs,
                                  std::uint32_t capacity,
                                  const MultiDmaOptions& options) {
  PlacementWorkspace workspace;
  return DistributeMultiDma(seq, num_dbcs, capacity, options, workspace);
}

MultiDmaResult DistributeMultiDma(const trace::AccessSequence& seq,
                                  std::uint32_t num_dbcs,
                                  std::uint32_t capacity,
                                  const MultiDmaOptions& options,
                                  PlacementWorkspace& workspace) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument(
        "DistributeMultiDma: variables exceed capacity");
  }
  trace::ComputeVariableStats(seq, workspace.stats, workspace.first_use);
  const std::vector<trace::VariableStats>& stats = workspace.stats;

  // Iteratively extract disjoint sets from the not-yet-claimed variables.
  // Masked variables are hidden from the selection by zeroing their stats
  // (an absent variable is never selected).
  std::vector<trace::VariableStats> masked(stats.begin(), stats.end());
  std::vector<bool> claimed(n, false);
  std::vector<std::vector<VariableId>> sets;
  const std::uint32_t hard_cap = num_dbcs > 1 ? num_dbcs - 1 : 0;
  const std::uint32_t set_budget =
      options.max_sets > 0
          ? std::min<std::uint32_t>(options.max_sets, hard_cap)
          : std::min<std::uint32_t>(std::max<std::uint32_t>(num_dbcs / 2, 1),
                                    hard_cap);
  std::size_t claimed_count = 0;
  while (sets.size() < set_budget && claimed_count < n) {
    const std::span<const VariableId> selected =
        SelectDisjointVariables(masked, workspace);
    std::vector<VariableId> set(selected.begin(), selected.end());
    if (set.empty()) break;
    // Capacity: one DBC per set; trim overflow (lowest frequency first).
    if (capacity != kUnboundedCapacity && set.size() > capacity) {
      std::vector<VariableId> by_freq = set;
      std::stable_sort(by_freq.begin(), by_freq.end(),
                       [&stats](VariableId a, VariableId b) {
                         return stats[a].frequency < stats[b].frequency;
                       });
      std::vector<bool> drop(n, false);
      for (std::size_t i = 0; i + capacity < by_freq.size(); ++i) {
        drop[by_freq[i]] = true;
      }
      std::erase_if(set, [&drop](VariableId v) { return drop[v]; });
    }
    std::uint64_t set_frequency = 0;
    for (const VariableId v : set) set_frequency += stats[v].frequency;
    // Always mask the set's variables so the extraction makes progress;
    // only sets pulling real traffic earn a DBC.
    for (const VariableId v : set) {
      masked[v] = trace::VariableStats{};  // freq 0, never accessed
    }
    const double share = seq.empty() ? 0.0
                                     : static_cast<double>(set_frequency) /
                                           static_cast<double>(seq.size());
    if (share < options.min_traffic_share) break;  // later sets only shrink
    for (const VariableId v : set) {
      claimed[v] = true;
      ++claimed_count;
    }
    sets.push_back(std::move(set));
  }

  Placement placement(n, num_dbcs, capacity);
  for (std::uint32_t s = 0; s < sets.size(); ++s) {
    for (const VariableId v : sets[s]) placement.Append(s, v);
  }

  // Remaining variables: frequency deal over the remaining DBCs (AFD rule).
  const auto k = static_cast<std::uint32_t>(sets.size());
  std::vector<VariableId> leftovers;
  for (const VariableId v : SortByFrequencyDescending(stats, seq, workspace)) {
    if (!claimed[v]) leftovers.push_back(v);
  }
  if (!leftovers.empty()) {
    const std::uint32_t first = k < num_dbcs ? k : num_dbcs - 1;
    std::uint32_t next = first;
    for (const VariableId v : leftovers) {
      std::uint32_t attempts = 0;
      while (placement.FreeIn(next) == 0) {
        next = next + 1 >= num_dbcs ? first : next + 1;
        if (++attempts > num_dbcs) break;
      }
      if (placement.FreeIn(next) == 0) {
        // Spill into free tail slots of the set DBCs (prefix order kept).
        for (std::uint32_t d = 0; d < num_dbcs; ++d) {
          if (placement.FreeIn(d) > 0) {
            next = d;
            break;
          }
        }
      }
      placement.Append(next, v);
      next = next + 1 >= num_dbcs ? first : next + 1;
    }
    ApplyIntra(options.base.intra, seq, placement, first, num_dbcs,
               workspace);
  }

  MultiDmaResult result{std::move(placement), std::move(sets), k};
  return result;
}

}  // namespace rtmp::core
