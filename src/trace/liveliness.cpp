#include "trace/liveliness.h"

#include <algorithm>

namespace rtmp::trace {

std::uint64_t SumNestedFrequency(std::span<const VariableStats> stats,
                                 const VariableStats& outer,
                                 std::span<const VariableId> candidates) {
  std::uint64_t sum = 0;
  for (const VariableId u : candidates) {
    if (LifespanNestedWithin(stats[u], outer)) sum += stats[u].frequency;
  }
  return sum;
}

bool AllPairwiseDisjoint(std::span<const VariableStats> stats,
                         std::span<const VariableId> group) {
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      if (!LifespansDisjoint(stats[group[i]], stats[group[j]])) return false;
    }
  }
  return true;
}

std::uint64_t CountDisjointPairs(std::span<const VariableStats> stats) {
  // Sweep intervals sorted by first occurrence: a pair is disjoint iff the
  // earlier interval's last precedes the later interval's first. Count
  // overlapping pairs and subtract from the total.
  std::vector<std::pair<std::size_t, std::size_t>> intervals;
  for (const VariableStats& s : stats) {
    if (s.first != kNever) intervals.emplace_back(s.first, s.last);
  }
  const std::uint64_t n = intervals.size();
  if (n < 2) return 0;
  std::sort(intervals.begin(), intervals.end());
  // For each interval, count how many earlier-starting intervals are still
  // live at its start (their last >= its first) => overlapping pair.
  std::vector<std::size_t> lasts;
  lasts.reserve(n);
  std::uint64_t overlapping = 0;
  for (const auto& [first, last] : intervals) {
    // lasts holds the sorted multiset of `last` values of earlier intervals.
    const auto it = std::lower_bound(lasts.begin(), lasts.end(), first);
    overlapping += static_cast<std::uint64_t>(lasts.end() - it);
    lasts.insert(std::upper_bound(lasts.begin(), lasts.end(), last), last);
  }
  return n * (n - 1) / 2 - overlapping;
}

}  // namespace rtmp::trace
