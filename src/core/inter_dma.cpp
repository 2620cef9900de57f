#include "core/inter_dma.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/inter_afd.h"

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
  const std::size_t m = by_first.size();
  const auto first = [&](std::size_t i) { return stats[by_first[i]].first; };
  const auto last = [&](std::size_t i) { return stats[by_first[i]].last; };

  // Line 10's nested frequency of every candidate, in one sweep. A variable
  // nests strictly inside v iff it starts after F_v and ends before L_v, so
  // walking the candidates by descending first occurrence, a Fenwick tree
  // over last-occurrence ranks that holds the frequencies of the candidates
  // already walked sums exactly v's nested set below v's rank. The sum
  // ranges over the current Vndj, which is all of it: nested variables
  // start after v, and selection follows first-occurrence order. Exact
  // because positions are distinct: no two variables share a first or a
  // last occurrence.
  std::vector<std::size_t> by_last(m);  // candidate indices
  std::iota(by_last.begin(), by_last.end(), std::size_t{0});
  std::sort(by_last.begin(), by_last.end(),
            [&](std::size_t a, std::size_t b) { return last(a) < last(b); });
  std::vector<std::size_t> rank(m);  // 1-based Fenwick index
  for (std::size_t r = 0; r < m; ++r) rank[by_last[r]] = r + 1;
  std::vector<std::uint64_t> tree(m + 1, 0);
  std::vector<std::uint64_t> nested(m, 0);
  for (std::size_t i = m; i-- > 0;) {
    for (std::size_t x = rank[i] - 1; x > 0; x &= x - 1) nested[i] += tree[x];
    for (std::size_t x = rank[i]; x <= m; x += x & (~x + 1)) {
      tree[x] += stats[by_first[i]].frequency;
    }
  }

  std::vector<VariableId> disjoint;
  // tmin is the last occurrence of the most recently selected variable;
  // -1 admits the earliest candidate (the paper's 1-based pseudo-code uses
  // tmin = 0 for the same purpose).
  std::int64_t tmin = -1;
  for (std::size_t i = 0; i < m; ++i) {
    if (static_cast<std::int64_t>(first(i)) <= tmin) continue;
    // Accept v only if its own accesses outweigh everything whose lifespan
    // nests strictly inside v's (those variables become expensive
    // neighbors if v monopolizes a disjoint slot).
    if (stats[by_first[i]].frequency > nested[i]) {
      disjoint.push_back(by_first[i]);
      tmin = static_cast<std::int64_t>(last(i));
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
  // descending frequency order (ties by ascending id, as in AFD), skipping
  // DBCs that are full. Once all of [K, q) is full, the rest spill
  // round-robin into the free tail slots of the disjoint DBCs [0, K) (their
  // ordered prefix stays intact); total capacity >= |V| guarantees room.
  std::vector<VariableId> leftovers;
  leftovers.reserve(leftover_count);
  for (const VariableId v : SortByFrequencyDescending(stats, seq)) {
    if (!is_disjoint[v]) leftovers.push_back(v);
  }
  if (!leftovers.empty() && k >= num_dbcs) {
    // Only possible when every variable was classified disjoint yet some
    // zero-frequency stragglers remain; fall back to the last DBC.
    k = num_dbcs - 1;
  }
  std::size_t dealt = 0;
  std::vector<std::uint32_t> open;  // DBCs of the current ring with room
  for (const auto& [ring_begin, ring_end] :
       {std::pair{k, num_dbcs}, std::pair{0u, k}}) {
    open.clear();
    for (std::uint32_t d = ring_begin; d < ring_end; ++d) {
      if (placement.FreeIn(d) > 0) open.push_back(d);
    }
    // `at` walks `open` cyclically; a DBC that fills up leaves the ring.
    std::size_t at = 0;
    while (dealt < leftovers.size() && !open.empty()) {
      if (at == open.size()) at = 0;
      placement.Append(open[at], leftovers[dealt++]);
      if (placement.FreeIn(open[at]) == 0) {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        ++at;
      }
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
