#include "core/inter_dma.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/inter_afd.h"
#include "core/placement_workspace.h"

namespace rtmp::core {

namespace {

/// Lines 6-12 over `by_first`: the variables that occur, in ascending
/// first-occurrence order (line 5). Writes Vdj into workspace.disjoint.
std::span<const VariableId> SelectAmong(
    std::span<const trace::VariableStats> stats,
    std::span<const VariableId> by_first, PlacementWorkspace& workspace) {
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
  std::vector<std::size_t>& by_last = workspace.by_last;  // candidates
  by_last.resize(m);
  std::iota(by_last.begin(), by_last.end(), std::size_t{0});
  std::sort(by_last.begin(), by_last.end(),
            [&](std::size_t a, std::size_t b) { return last(a) < last(b); });
  std::vector<std::size_t>& rank = workspace.rank;  // 1-based Fenwick index
  rank.resize(m);
  for (std::size_t r = 0; r < m; ++r) rank[by_last[r]] = r + 1;
  std::vector<std::uint64_t>& tree = workspace.tree;
  tree.assign(m + 1, 0);
  std::vector<std::uint64_t>& nested = workspace.nested;
  nested.assign(m, 0);
  for (std::size_t i = m; i-- > 0;) {
    for (std::size_t x = rank[i] - 1; x > 0; x &= x - 1) nested[i] += tree[x];
    for (std::size_t x = rank[i]; x <= m; x += x & (~x + 1)) {
      tree[x] += stats[by_first[i]].frequency;
    }
  }

  std::vector<VariableId>& disjoint = workspace.disjoint;
  disjoint.clear();
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

/// Algorithm 1 over `workspace` (see DistributeDma). Leaves Vdj in
/// `workspace.disjoint` and returns K in `disjoint_dbcs`.
Placement Dma(const trace::AccessSequence& seq, std::uint32_t num_dbcs,
              std::uint32_t capacity, const DmaOptions& options,
              PlacementWorkspace& workspace, std::uint32_t& disjoint_dbcs) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("DistributeDma: variables exceed capacity");
  }
  trace::ComputeVariableStats(seq, workspace.stats, workspace.first_use);
  const std::vector<trace::VariableStats>& stats = workspace.stats;

  // The stats pass listed the variables that occur in first-occurrence
  // order: the selection's candidates, with no scan of the idle ids.
  const std::span<const VariableId> accessed = workspace.first_use;
  (void)SelectAmong(stats, accessed, workspace);
  std::vector<VariableId>& disjoint = workspace.disjoint;
  std::vector<std::uint8_t>& is_disjoint = workspace.is_disjoint;
  is_disjoint.assign(n, 0);
  for (const VariableId v : disjoint) is_disjoint[v] = 1;

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
      for (std::size_t i = 0; i < drop; ++i) is_disjoint[by_freq[i]] = 0;
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
  // descending frequency order (ties by ascending name, as in AFD),
  // skipping DBCs that are full. Once all of [K, q) is full, the rest
  // spill round-robin into the free tail slots of the disjoint DBCs
  // [0, K) (their ordered prefix stays intact); total capacity >= |V|
  // guarantees room. The order lists the accessed variables first, then
  // the never-accessed ones (never disjoint); the filter writes each
  // accessed id and keeps it only when it is not disjoint.
  const std::span<const VariableId> order =
      SortByFrequencyDescending(stats, seq, workspace);
  const std::span<const VariableId> idle = order.subspan(accessed.size());
  std::vector<VariableId>& leftovers = workspace.leftovers;
  leftovers.resize(accessed.size());
  std::size_t accessed_left = 0;
  for (const VariableId v : order.first(accessed.size())) {
    leftovers[accessed_left] = v;
    accessed_left += is_disjoint[v] != 0 ? 0 : 1;
  }
  const std::size_t remaining = accessed_left + idle.size();
  if (remaining > 0 && k >= num_dbcs) {
    // Only possible when every variable was classified disjoint yet some
    // zero-frequency stragglers remain; fall back to the last DBC.
    k = num_dbcs - 1;
  }

  // Lines 22-23 reorder the non-disjoint DBCs [K, q) by the intra
  // heuristic (with a single DBC the disjoint prefix must keep its
  // order: no intra step). ApplyIntra ends each such DBC with its
  // never-accessed variables in ascending id, after the accessed ones in
  // the heuristic's order. So the deal only notes the DBC each
  // never-accessed variable gets there, the intra step orders the
  // accessed ones alone, and one pass over ascending ids then appends the
  // rest: the bulk of an online window's variable space is never sorted,
  // reordered or moved. Lists outside [K, q) keep the deal order.
  const bool intra = options.intra != IntraHeuristic::kNone &&
                     (num_dbcs > 1 || disjoint.empty());
  const std::uint32_t deferred_from = intra ? k : num_dbcs;
  // dbc_of is read only for the deferred (still unplaced) variables.
  std::vector<std::uint32_t>& dbc_of = workspace.dbc_of;
  if (deferred_from < num_dbcs) dbc_of.resize(n);
  // fill[d] counts DBC d's deferred variables too.
  std::vector<std::uint32_t>& fill = workspace.fill;
  fill.resize(num_dbcs);
  for (std::uint32_t d = 0; d < num_dbcs; ++d) {
    fill[d] = static_cast<std::uint32_t>(placement.dbc(d).size());
  }
  const auto has_room = [&fill, capacity](std::uint32_t d) {
    return capacity == kUnboundedCapacity || fill[d] < capacity;
  };
  std::size_t dealt = 0;
  std::vector<std::uint32_t>& open = workspace.open;  // ring DBCs with room
  for (const auto& [ring_begin, ring_end] :
       {std::pair{k, num_dbcs}, std::pair{0u, k}}) {
    open.clear();
    for (std::uint32_t d = ring_begin; d < ring_end; ++d) {
      if (has_room(d)) open.push_back(d);
    }
    // `at` walks `open` cyclically; a DBC that fills up leaves the ring.
    std::size_t at = 0;
    while (dealt < remaining && !open.empty()) {
      if (at == open.size()) at = 0;
      const std::uint32_t d = open[at];
      if (dealt < accessed_left) {
        placement.Append(d, leftovers[dealt]);
      } else if (d >= deferred_from) {
        dbc_of[idle[dealt - accessed_left]] = d;
      } else {
        placement.Append(d, idle[dealt - accessed_left]);
      }
      ++dealt;
      ++fill[d];
      if (has_room(d)) {
        ++at;
      } else {
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
  }

  if (intra) {
    ApplyIntra(options.intra, seq, placement, k, num_dbcs, workspace);
  }
  if (deferred_from < num_dbcs) {
    for (VariableId v = 0; v < n; ++v) {
      if (!placement.IsPlaced(v)) placement.Append(dbc_of[v], v);
    }
  }
  disjoint_dbcs = k;
  return placement;
}

}  // namespace

std::vector<VariableId> SelectDisjointVariables(
    std::span<const trace::VariableStats> stats) {
  PlacementWorkspace workspace;
  (void)SelectDisjointVariables(stats, workspace);
  return std::move(workspace.disjoint);
}

std::span<const VariableId> SelectDisjointVariables(
    std::span<const trace::VariableStats> stats,
    PlacementWorkspace& workspace) {
  // Candidates in ascending first-occurrence order (line 5). Variables that
  // never occur cannot be "disjoint with maximal self-accesses"; they are
  // left for the non-disjoint distribution. The scan writes every id and
  // steps past it only when it occurs, so the idle bulk of an online
  // window's variable space costs no branch.
  std::vector<VariableId>& by_first = workspace.by_first;
  by_first.resize(stats.size());
  std::size_t m = 0;
  for (VariableId v = 0; v < stats.size(); ++v) {
    by_first[m] = v;
    m += stats[v].first != trace::kNever ? 1 : 0;
  }
  by_first.resize(m);
  std::sort(by_first.begin(), by_first.end(),
            [&stats](VariableId a, VariableId b) {
              return stats[a].first < stats[b].first;
            });
  return SelectAmong(stats, by_first, workspace);
}

DmaResult DistributeDma(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const DmaOptions& options) {
  PlacementWorkspace workspace;
  std::uint32_t k = 0;
  Placement placement = Dma(seq, num_dbcs, capacity, options, workspace, k);
  return {std::move(placement), std::move(workspace.disjoint), k};
}

Placement DistributeDma(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const DmaOptions& options,
                        PlacementWorkspace& workspace) {
  std::uint32_t k = 0;
  return Dma(seq, num_dbcs, capacity, options, workspace, k);
}

}  // namespace rtmp::core
