#include "core/inter_dma.h"

#include <algorithm>
#include <stdexcept>

#include "core/inter_afd.h"
#include "trace/liveliness.h"

namespace rtmp::core {

std::vector<VariableId> SelectDisjointVariables(
    std::span<const trace::VariableStats> stats) {
  // Candidates in ascending first-occurrence order (line 5). Variables that
  // never occur cannot be "disjoint with maximal self-accesses"; they are
  // left for the non-disjoint distribution.
  std::vector<VariableId> by_first;
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first != trace::kNever) by_first.push_back(v);
  }
  std::sort(by_first.begin(), by_first.end(),
            [&stats](VariableId a, VariableId b) {
              return stats[a].first < stats[b].first;
            });

  std::vector<VariableId> disjoint;
  // tmin is the last occurrence of the most recently selected variable;
  // -1 admits the earliest candidate (the paper's 1-based pseudo-code uses
  // tmin = 0 for the same purpose).
  std::int64_t tmin = -1;
  for (std::size_t i = 0; i < by_first.size(); ++i) {
    const VariableId v = by_first[i];
    const trace::VariableStats& sv = stats[v];
    if (static_cast<std::int64_t>(sv.first) <= tmin) continue;
    // Line 10: accept v only if its own accesses outweigh everything whose
    // lifespan nests strictly inside v's (those variables become expensive
    // neighbors if v monopolizes a disjoint slot). The sum ranges over the
    // current Vndj. A nested variable occurs (absent ones nest in nothing)
    // and starts inside (F_v, L_v), so only the candidates after v in
    // first-occurrence order that start before L_v can contribute — and
    // none of those is selected yet, since selection follows that order.
    std::uint64_t nested = 0;
    for (std::size_t j = i + 1; j < by_first.size(); ++j) {
      const VariableId u = by_first[j];
      if (stats[u].first >= sv.last) break;
      if (trace::LifespanNestedWithin(stats[u], sv)) {
        nested += stats[u].frequency;
      }
    }
    if (sv.frequency > nested) {
      disjoint.push_back(v);
      tmin = static_cast<std::int64_t>(sv.last);
    }
  }
  return disjoint;
}

DmaResult DistributeDma(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const DmaOptions& options) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("DistributeDma: variables exceed capacity");
  }
  const auto stats = trace::ComputeVariableStats(seq);

  std::vector<VariableId> disjoint = SelectDisjointVariables(stats);
  std::vector<bool> is_disjoint(n, false);
  for (const VariableId v : disjoint) is_disjoint[v] = true;

  // Line 13: K DBCs for the disjoint variables.
  std::uint32_t k = 0;
  if (!disjoint.empty()) {
    if (capacity == kUnboundedCapacity) {
      k = 1;
    } else {
      k = static_cast<std::uint32_t>(
          (disjoint.size() + capacity - 1) / capacity);
    }
  }
  const std::size_t leftover_count = n - disjoint.size();

  // Keep at least one DBC for non-disjoint variables; trim Vdj (drop the
  // lowest-frequency members back to Vndj) if it cannot fit.
  const std::uint32_t max_disjoint_dbcs =
      leftover_count > 0 ? (num_dbcs > 1 ? num_dbcs - 1 : 0) : num_dbcs;
  if (k > max_disjoint_dbcs) {
    k = max_disjoint_dbcs;
    const std::uint64_t keep =
        capacity == kUnboundedCapacity
            ? (k > 0 ? disjoint.size() : 0)
            : static_cast<std::uint64_t>(k) * capacity;
    if (disjoint.size() > keep) {
      // Drop lowest-frequency disjoint variables first; preserve the
      // first-occurrence order of the survivors.
      std::vector<VariableId> by_freq = disjoint;
      std::stable_sort(by_freq.begin(), by_freq.end(),
                       [&stats](VariableId a, VariableId b) {
                         return stats[a].frequency < stats[b].frequency;
                       });
      const std::size_t drop = by_freq.size() - static_cast<std::size_t>(keep);
      for (std::size_t i = 0; i < drop; ++i) is_disjoint[by_freq[i]] = false;
      std::erase_if(disjoint,
                    [&is_disjoint](VariableId v) { return !is_disjoint[v]; });
    }
  }

  Placement placement(n, num_dbcs, capacity);

  // Lines 14-17: disjoint variables round-robin over DBCs [0, K) in
  // ascending first-occurrence order (SelectDisjointVariables returns that
  // order). Each DBC receives its members in access order.
  if (k > 0) {
    std::uint32_t next = 0;
    for (const VariableId v : disjoint) {
      placement.Append(next, v);
      next = (next + 1) % k;
    }
  }

  // Lines 18-21: remaining variables round-robin over DBCs [K, q) in
  // descending frequency order (ties by ascending id, as in AFD).
  std::vector<VariableId> leftovers;
  leftovers.reserve(leftover_count);
  for (const VariableId v : SortByFrequencyDescending(stats, seq)) {
    if (!is_disjoint[v]) leftovers.push_back(v);
  }
  if (!leftovers.empty()) {
    if (k >= num_dbcs) {
      // Only possible when every variable was classified disjoint yet some
      // zero-frequency stragglers remain; fall back to the last DBC.
      k = num_dbcs - 1;
    }
    std::uint32_t next = k;
    for (const VariableId v : leftovers) {
      std::uint32_t attempts = 0;
      while (placement.FreeIn(next) == 0) {
        next = next + 1 >= num_dbcs ? k : next + 1;
        if (++attempts > num_dbcs) break;
      }
      if (placement.FreeIn(next) == 0) {
        // The non-disjoint DBCs are full: spill into the free tail slots of
        // the disjoint DBCs (their ordered prefix stays intact). Total
        // capacity >= |V| guarantees a slot exists.
        for (std::uint32_t d = 0; d < num_dbcs; ++d) {
          if (placement.FreeIn(d) > 0) {
            next = d;
            break;
          }
        }
      }
      placement.Append(next, v);
      next = next + 1 >= num_dbcs ? k : next + 1;
    }
  }

  // Lines 22-23: intra-DBC optimization on the non-disjoint DBCs only.
  // With a single DBC the disjoint prefix must keep its order: skip.
  if (num_dbcs > 1 || disjoint.empty()) {
    ApplyIntra(options.intra, seq, placement, k, num_dbcs);
  }

  DmaResult result{std::move(placement), std::move(disjoint), k};
  return result;
}

}  // namespace rtmp::core
