#include "core/intra_heuristics.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "core/placement_workspace.h"

namespace rtmp::core {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// The group's order: the chain's variables, then the never-accessed
/// ones, written into `order`.
std::span<const VariableId> FinishOrder(const LocalProblem& local,
                                        std::span<const std::size_t> chain,
                                        std::vector<VariableId>& order) {
  order.resize(chain.size() + local.unused.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    order[i] = local.globals[chain[i]];
  }
  std::copy(local.unused.begin(), local.unused.end(),
            order.begin() + static_cast<std::ptrdiff_t>(chain.size()));
  return order;
}

/// Seed vertex for the greedy heuristics: highest frequency, tie broken by
/// lower global id.
std::size_t SeedVertex(const LocalProblem& local) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < local.size(); ++v) {
    const bool better =
        local.frequency[v] > local.frequency[best] ||
        (local.frequency[v] == local.frequency[best] &&
         local.globals[v] < local.globals[best]);
    if (better) best = v;
  }
  return best;
}

/// Shared greedy skeleton for kChen/kShiftsReduce: repeatedly take the
/// unplaced vertex with the largest total weight to the placed set and let
/// `choose_front` decide which end it is appended to. Returns the chain,
/// a view of `scratch.ring`.
///
/// Contract: `choose_front(v, order)` is called EXACTLY ONCE per remaining
/// vertex, with the chain so far, and v is placed at the chosen end
/// immediately afterwards. Callbacks may carry state keyed on that
/// contract — ShiftsReduceChain's does (it tracks each placed vertex's
/// virtual chain coordinate).
template <typename ChooseFront>
std::span<std::size_t> GrowChain(const LocalProblem& local,
                                 ChainScratch& scratch,
                                 ChooseFront&& choose_front) {
  const std::size_t n = local.size();
  if (n == 0) return {};
  scratch.placed.assign(n, 0);
  scratch.gain.assign(n, 0);
  std::uint8_t* const placed = scratch.placed.data();
  std::uint64_t* const gain = scratch.gain.data();
  // n - 1 pushes at most on either side of the seed at ring[n].
  if (scratch.ring.size() < 2 * n) scratch.ring.resize(2 * n);
  std::size_t* const ring = scratch.ring.data();
  std::size_t head = n;
  std::size_t tail = n;
  auto place = [&](std::size_t v) {
    placed[v] = 1;
    for (const Edge& e : local.adjacency(v)) {
      if (placed[e.neighbor] == 0) gain[e.neighbor] += e.weight;
    }
  };

  const std::size_t seed = SeedVertex(local);
  ring[tail++] = seed;
  place(seed);

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = kNoIndex;
    for (std::size_t v = 0; v < n; ++v) {
      if (placed[v] != 0) continue;
      if (best == kNoIndex) {
        best = v;
        continue;
      }
      const bool better =
          gain[v] > gain[best] ||
          (gain[v] == gain[best] &&
           (local.frequency[v] > local.frequency[best] ||
            (local.frequency[v] == local.frequency[best] &&
             local.globals[v] < local.globals[best])));
      if (better) best = v;
    }
    const std::span<const std::size_t> order(ring + head, tail - head);
    if (choose_front(best, order)) {
      ring[--head] = best;
    } else {
      ring[tail++] = best;
    }
    place(best);
  }
  return {ring + head, n};
}

std::uint64_t EdgeWeightBetween(const LocalProblem& local, std::size_t u,
                                std::size_t v) {
  // Adjacency lists are sorted by neighbor id (GroupedProblems::Build).
  const std::span<const Edge> edges = local.adjacency(u);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), v,
      [](const Edge& e, std::size_t id) {
        return e.neighbor < id;
      });
  return it != edges.end() && it->neighbor == v ? it->weight : 0;
}

std::span<std::size_t> ChenChain(const LocalProblem& local,
                                 ChainScratch& scratch) {
  const auto choose_front = [&local](std::size_t v,
                                     std::span<const std::size_t> order) {
    // Attach to the end the candidate is more strongly connected to.
    const std::uint64_t to_front = EdgeWeightBetween(local, v, order.front());
    const std::uint64_t to_back = EdgeWeightBetween(local, v, order.back());
    return to_front > to_back;
  };
  return GrowChain(local, scratch, choose_front);
}

/// Greedy maximum-weight path cover: accept edges by descending weight when
/// both endpoints still have a free slot (degree < 2) and the edge closes
/// no cycle; stitch the resulting paths together, heaviest first.
std::vector<std::size_t> GreedyEdgeChain(const LocalProblem& local) {
  const std::size_t n = local.size();
  std::vector<std::size_t> chain;
  if (n == 0) return chain;

  struct WeightedEdge {
    std::size_t u = 0;
    std::size_t v = 0;
    std::uint64_t weight = 0;
  };
  std::vector<WeightedEdge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (const Edge& e : local.adjacency(u)) {
      if (u < e.neighbor) edges.push_back({u, e.neighbor, e.weight});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });

  // Union-find over path fragments; degree caps keep fragments simple paths.
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  std::vector<int> degree(n, 0);
  std::vector<std::vector<std::size_t>> accepted(n);
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const WeightedEdge& e : edges) {
    if (degree[e.u] >= 2 || degree[e.v] >= 2) continue;
    const std::size_t ru = find(e.u);
    const std::size_t rv = find(e.v);
    if (ru == rv) continue;  // would close a cycle
    parent[ru] = rv;
    ++degree[e.u];
    ++degree[e.v];
    accepted[e.u].push_back(e.v);
    accepted[e.v].push_back(e.u);
  }

  // Walk each path fragment from one of its endpoints; singletons follow.
  // Fragments are emitted in order of their heaviest member's frequency so
  // hot paths sit together near the front.
  std::vector<bool> visited(n, false);
  std::vector<std::vector<std::size_t>> fragments;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start] || accepted[start].size() == 2) continue;
    // start is an endpoint (degree 0 or 1) of an unvisited fragment.
    std::vector<std::size_t> fragment;
    std::size_t prev = n;  // sentinel
    std::size_t cur = start;
    for (;;) {
      visited[cur] = true;
      fragment.push_back(cur);
      std::size_t next = n;
      for (const std::size_t cand : accepted[cur]) {
        if (cand != prev) {
          next = cand;
          break;
        }
      }
      if (next == n) break;
      prev = cur;
      cur = next;
    }
    fragments.push_back(std::move(fragment));
  }
  std::sort(fragments.begin(), fragments.end(),
            [&local](const auto& a, const auto& b) {
              std::uint64_t fa = 0;
              std::uint64_t fb = 0;
              for (const auto v : a) fa = std::max(fa, local.frequency[v]);
              for (const auto v : b) fb = std::max(fb, local.frequency[v]);
              if (fa != fb) return fa > fb;
              return local.globals[a.front()] < local.globals[b.front()];
            });
  for (const auto& fragment : fragments) {
    chain.insert(chain.end(), fragment.begin(), fragment.end());
  }
  return chain;
}

std::span<std::size_t> ShiftsReduceChain(const LocalProblem& local,
                                         ChainScratch& scratch) {
  // Distance-discounted attachment: an edge to a variable i positions from
  // an end would cost (i+1) shifts per traversal if we append at that end.
  //
  // Scored over the candidate's placed NEIGHBORS (the transition weights),
  // not by scanning the whole chain per candidate: O(deg) per decision,
  // since a DBC's single-port cost is its pairwise transition counts times
  // the pairs' offset distances. Virtual coordinates track each
  // placed vertex's position: the seed sits at 0, a front push decrements
  // the front coordinate, a back push increments the back one. The front
  // distance is coord - front_coord and the back distance
  // back_coord - coord, so a candidate's placed neighbors in ascending
  // coordinate order give the front terms and, read backwards, the back
  // terms — each sum in ascending distance order, exactly the order the
  // former whole-chain scan added them, so the floating-point scores, and
  // therefore the chains, are bit-identical.
  //
  // Every vertex u keeps those neighbors already in coordinate order: a
  // window of 2 x deg(u) slots in one flat buffer, filled from its middle.
  // Placing v at the front prepends (coord, weight) to each neighbor's
  // window and placing it at the back appends, so no candidate needs a
  // sort. Each neighbor of u is placed once, so neither side of the window
  // outgrows deg(u) slots. (Windows of vertices already placed fill up
  // too, unread.)
  const std::size_t n = local.size();
  scratch.windows.resize(2 * local.edges.size());
  scratch.window_head.resize(n);
  scratch.window_tail.resize(n);
  PlacedNeighbor* const windows = scratch.windows.data();
  std::size_t* const head = scratch.window_head.data();  // u's window is
  std::size_t* const tail = scratch.window_tail.data();  // [head, tail)
  for (std::size_t u = 0; u < n; ++u) {
    head[u] = tail[u] = local.edge_begin[u] + local.edge_begin[u + 1];
  }
  const auto enter = [&](std::size_t v, std::int64_t coord, bool front) {
    for (const Edge& e : local.adjacency(v)) {
      if (front) {
        windows[--head[e.neighbor]] = {coord, e.weight};
      } else {
        windows[tail[e.neighbor]++] = {coord, e.weight};
      }
    }
  };
  std::int64_t front_coord = 0;
  std::int64_t back_coord = 0;
  const std::span<std::size_t> chain = GrowChain(
      local, scratch,
      [&](std::size_t v, std::span<const std::size_t> order) {
        if (order.size() == 1) enter(order.front(), 0, false);  // the seed
        double front_score = 0.0;
        for (std::size_t i = head[v]; i < tail[v]; ++i) {
          front_score +=
              static_cast<double>(windows[i].weight) /
              static_cast<double>(windows[i].coord - front_coord + 1);
        }
        double back_score = 0.0;
        for (std::size_t i = tail[v]; i > head[v]; --i) {
          back_score +=
              static_cast<double>(windows[i - 1].weight) /
              static_cast<double>(back_coord - windows[i - 1].coord + 1);
        }
        const bool to_front = front_score > back_score;
        enter(v, to_front ? --front_coord : ++back_coord, to_front);
        return to_front;
      });

  // Local refinement: adjacent transpositions on the exact edge-sum
  // objective until a fixed point (bounded pass count for safety).
  if (n < 2) return chain;
  scratch.pos.resize(n);
  std::int64_t* const pos = scratch.pos.data();
  for (std::size_t i = 0; i < n; ++i) {
    pos[chain[i]] = static_cast<std::int64_t>(i);
  }

  auto swap_delta = [&](std::size_t p) {
    // Swapping chain[p] (u) and chain[p+1] (w).
    const std::size_t u = chain[p];
    const std::size_t w = chain[p + 1];
    std::int64_t delta = 0;
    for (const Edge& e : local.adjacency(u)) {
      if (e.neighbor == w) continue;
      const std::int64_t x = pos[e.neighbor];
      const auto wt = static_cast<std::int64_t>(e.weight);
      delta += wt * (std::llabs(static_cast<std::int64_t>(p + 1) - x) -
                     std::llabs(static_cast<std::int64_t>(p) - x));
    }
    for (const Edge& e : local.adjacency(w)) {
      if (e.neighbor == u) continue;
      const std::int64_t x = pos[e.neighbor];
      const auto wt = static_cast<std::int64_t>(e.weight);
      delta += wt * (std::llabs(static_cast<std::int64_t>(p) - x) -
                     std::llabs(static_cast<std::int64_t>(p + 1) - x));
    }
    return delta;
  };

  constexpr std::size_t kMaxPasses = 64;
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      if (swap_delta(p) < 0) {
        std::swap(chain[p], chain[p + 1]);
        pos[chain[p]] = static_cast<std::int64_t>(p);
        pos[chain[p + 1]] = static_cast<std::int64_t>(p + 1);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return chain;
}

/// Group `group`'s order under `heuristic` (not kNone), a view of
/// workspace storage valid until the next call.
std::span<const VariableId> Order(IntraHeuristic heuristic,
                                  std::uint32_t group,
                                  PlacementWorkspace& workspace) {
  GroupedProblems& problems = workspace.problems;
  // OFU's order is the first-use order Index() already holds.
  if (heuristic == IntraHeuristic::kOfu) return problems.FirstUseOrder(group);
  const LocalProblem& local = problems.Build(group);
  std::vector<VariableId>& order = workspace.dbc_order;
  switch (heuristic) {
    case IntraHeuristic::kChen:
      return FinishOrder(local, ChenChain(local, workspace.chain), order);
    case IntraHeuristic::kShiftsReduce:
      return FinishOrder(local, ShiftsReduceChain(local, workspace.chain),
                         order);
    case IntraHeuristic::kGreedyEdge:
      return FinishOrder(local, GreedyEdgeChain(local), order);
    case IntraHeuristic::kOfu:
    case IntraHeuristic::kNone:
      break;
  }
  throw std::invalid_argument("intra heuristics: unknown heuristic");
}

}  // namespace

std::string_view ToString(IntraHeuristic heuristic) noexcept {
  switch (heuristic) {
    case IntraHeuristic::kNone: return "none";
    case IntraHeuristic::kOfu: return "ofu";
    case IntraHeuristic::kChen: return "chen";
    case IntraHeuristic::kShiftsReduce: return "sr";
    case IntraHeuristic::kGreedyEdge: return "ge";
  }
  return "unknown";
}

std::vector<VariableId> OrderVariables(IntraHeuristic heuristic,
                                       std::span<const trace::Access> accesses,
                                       std::span<const VariableId> vars,
                                       std::size_t num_variables) {
  PlacementWorkspace workspace;
  workspace.problems.Reset(accesses, num_variables);
  workspace.problems.AddGroup(vars);
  workspace.problems.Index();
  if (heuristic == IntraHeuristic::kNone) return {vars.begin(), vars.end()};
  const std::span<const VariableId> order = Order(heuristic, 0, workspace);
  return {order.begin(), order.end()};
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first_dbc,
                std::uint32_t end_dbc) {
  PlacementWorkspace workspace;
  ApplyIntra(heuristic, seq, placement, first_dbc, end_dbc, workspace);
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first_dbc,
                std::uint32_t end_dbc, PlacementWorkspace& workspace) {
  if (first_dbc > end_dbc || end_dbc > placement.num_dbcs()) {
    throw std::invalid_argument("ApplyIntra: DBC range out of bounds");
  }
  if (heuristic == IntraHeuristic::kNone) return;
  GroupedProblems& problems = workspace.problems;
  problems.Reset(seq.accesses(), seq.num_variables());
  std::vector<std::uint32_t>& dbcs = workspace.dbcs;  // by group
  dbcs.resize(end_dbc - first_dbc);
  std::uint32_t groups = 0;
  for (std::uint32_t d = first_dbc; d < end_dbc; ++d) {
    if (placement.dbc(d).size() < 2) continue;
    problems.AddGroup(placement.dbc(d));
    dbcs[groups++] = d;
  }
  if (groups == 0) return;
  problems.Index();
  for (std::uint32_t group = 0; group < groups; ++group) {
    placement.Reorder(dbcs[group], Order(heuristic, group, workspace));
  }
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t dbc) {
  ApplyIntra(heuristic, seq, placement, dbc, dbc + 1);
}

}  // namespace rtmp::core
