#include "core/intra_heuristics.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <limits>
#include <stdexcept>

namespace rtmp::core {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// One weighted adjacency entry: `weight` counts how often the owner and
/// `neighbor` are accessed consecutively (self pairs excluded).
struct Edge {
  VariableId neighbor = 0;
  std::uint64_t weight = 0;
};

/// A placed neighbor in ShiftsReduceChain's scoring: its chain coordinate
/// and the weight of its edge to the vertex that owns the window.
struct PlacedNeighbor {
  std::int64_t coord = 0;
  std::uint64_t weight = 0;
};

/// Local view of one DBC's subproblem: dense local ids for the subset,
/// frequencies and a CSR adjacency structure from the restricted accesses.
struct LocalProblem {
  std::vector<VariableId> globals;       // local -> global id
  std::vector<std::uint64_t> frequency;  // by local id
  std::vector<std::size_t> edge_begin;   // CSR offsets by local id, n + 1
  std::vector<Edge> edges;               // every adjacency list, flat
  std::vector<VariableId> unused;        // subset vars never accessed

  [[nodiscard]] std::size_t size() const noexcept { return globals.size(); }

  /// u's edges, in ascending neighbor order.
  [[nodiscard]] std::span<const Edge> adjacency(std::size_t u) const {
    return std::span<const Edge>(edges).subspan(
        edge_begin[u], edge_begin[u + 1] - edge_begin[u]);
  }
};

/// The local problems of several disjoint variable groups (one group per
/// DBC) over one access stream, built from shared scratch: one V-sized
/// group lookup and one V-sized local-id map serve every group. Index()
/// reads the stream once for every group's first-use order; the first
/// Build() reads it once more to bucket every group's accesses (as local
/// ids) into one |S|-sized buffer, so each group's problem then costs only
/// its own accesses — no per-group scan of the stream, no restricted copy
/// and no per-group V-sized allocation.
class GroupedProblems {
 public:
  GroupedProblems(std::span<const trace::Access> accesses,
                  std::size_t num_variables)
      : accesses_(accesses),
        group_of_(num_variables, kNoGroup),
        to_local_(num_variables, kNoLocal) {}

  /// Registers the next group. Throws std::invalid_argument on an id
  /// outside the variable space or an id already in some group.
  void AddGroup(std::span<const VariableId> vars) {
    const auto group = static_cast<std::uint32_t>(count_.size());
    for (const VariableId v : vars) {
      if (v >= group_of_.size()) {
        throw std::invalid_argument(
            "intra heuristics: variable id outside the variable space");
      }
      if (group_of_[v] != kNoGroup) {
        throw std::invalid_argument(
            "intra heuristics: variable listed twice");
      }
      group_of_[v] = group;
    }
    count_.push_back(0);
    globals_.emplace_back().reserve(vars.size());
    unused_.emplace_back().reserve(vars.size());
  }

  /// One pass over the stream assigns every group's local ids in order of
  /// first access; one sweep over ids collects every group's
  /// never-accessed tail in ascending id order. Call once, after the
  /// last AddGroup. Throws std::invalid_argument on an access id outside
  /// the variable space.
  void Index() {
    for (const trace::Access& a : accesses_) {
      if (a.variable >= group_of_.size()) {
        throw std::invalid_argument(
            "intra heuristics: access id outside the variable space");
      }
      const std::uint32_t group = group_of_[a.variable];
      if (group == kNoGroup) continue;
      ++count_[group];
      if (to_local_[a.variable] == kNoLocal) {
        to_local_[a.variable] =
            static_cast<std::uint32_t>(globals_[group].size());
        globals_[group].push_back(a.variable);
      }
    }
    for (VariableId v = 0; v < group_of_.size(); ++v) {
      const std::uint32_t group = group_of_[v];
      if (group != kNoGroup && to_local_[v] == kNoLocal) {
        unused_[group].push_back(v);
      }
    }
  }

  /// Group `group`'s order of first use: its accessed variables in order
  /// of first access, then its never-accessed ones in ascending id order
  /// (the whole kOfu answer, with no adjacency). Moves the group's id
  /// lists out, so call at most once per group, after Index(), and not
  /// together with Build(group).
  std::vector<VariableId> FirstUseOrder(std::uint32_t group) {
    std::vector<VariableId> order = std::move(globals_[group]);
    order.insert(order.end(), unused_[group].begin(), unused_[group].end());
    return order;
  }

  /// Group `group`'s local problem: dense local ids, frequencies and a
  /// deterministic adjacency from its accesses. Moves the group's id
  /// lists out, so call at most once per group, after Index(). The
  /// returned problem is overwritten by the next Build; its buffers, like
  /// every scratch buffer here, keep their capacity across groups.
  const LocalProblem& Build(std::uint32_t group) {
    if (offset_.empty()) Bucket();
    LocalProblem& local = local_;
    local.globals = std::move(globals_[group]);
    local.unused = std::move(unused_[group]);
    const std::size_t n = local.globals.size();
    local.frequency.assign(n, 0);
    // Packed (lo, hi) transition pairs, put in ascending order by two
    // stable counting passes (by hi, then by lo; both are local ids < n)
    // and run-length counted: edge weights accumulate in key order, so
    // adjacency construction is deterministic with no hash-ordered
    // container in the path (the adjacency lists feed heuristic
    // tie-breaks and, through them, the golden-checked reports).
    transitions_.clear();
    std::size_t prev = kNoIndex;
    for (std::size_t i = offset_[group]; i < offset_[group + 1]; ++i) {
      const std::size_t cur = locals_[i];
      ++local.frequency[cur];
      if (prev != kNoIndex && prev != cur) {
        const std::uint64_t lo = std::min(prev, cur);
        const std::uint64_t hi = std::max(prev, cur);
        transitions_.push_back((lo << 32) | hi);
      }
      prev = cur;
    }
    sorted_.resize(transitions_.size());
    CountingPass(transitions_, sorted_, n, 0);
    CountingPass(sorted_, transitions_, n, 32);
    // Run-length count in place: the distinct keys move to the front of
    // transitions_, their weights to weights_, and each distinct key adds
    // one edge to both endpoints' lists.
    local.edge_begin.assign(n + 1, 0);
    weights_.clear();
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < transitions_.size();) {
      const std::uint64_t key = transitions_[i];
      std::size_t j = i;
      while (j < transitions_.size() && transitions_[j] == key) ++j;
      transitions_[distinct++] = key;
      weights_.push_back(j - i);
      ++local.edge_begin[(key >> 32) + 1];
      ++local.edge_begin[(key & 0xFFFFFFFFULL) + 1];
      i = j;
    }
    for (std::size_t u = 0; u < n; ++u) {
      local.edge_begin[u + 1] += local.edge_begin[u];
    }
    // Keys ascend by (lo, hi), so every list fills in ascending neighbor
    // order with no sort of its own: x first meets the keys (lo, x),
    // lo < x, by ascending lo, then the keys (x, hi), hi > x, by
    // ascending hi. EdgeWeightBetween's binary search relies on it.
    cursor_.assign(local.edge_begin.begin(), local.edge_begin.end() - 1);
    local.edges.resize(local.edge_begin[n]);
    for (std::size_t i = 0; i < distinct; ++i) {
      const auto u = static_cast<std::size_t>(transitions_[i] >> 32);
      const auto v = static_cast<std::size_t>(transitions_[i] & 0xFFFFFFFFULL);
      local.edges[cursor_[u]++] = {static_cast<VariableId>(v), weights_[i]};
      local.edges[cursor_[v]++] = {static_cast<VariableId>(u), weights_[i]};
    }
    return local;
  }

  /// ShiftsReduceChain's window buffer, reused across groups.
  std::vector<PlacedNeighbor>& windows() noexcept { return windows_; }

 private:
  static constexpr std::uint32_t kNoGroup =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoLocal =
      std::numeric_limits<std::uint32_t>::max();

  /// One more pass over the stream: every group's accesses, as local ids
  /// in stream order, land in the group's slice of `locals_`, slices laid
  /// out by group at the offsets that `count_` gives.
  void Bucket() {
    offset_.assign(count_.size() + 1, 0);
    for (std::size_t g = 0; g < count_.size(); ++g) {
      offset_[g + 1] = offset_[g] + count_[g];
    }
    std::vector<std::size_t> next(offset_.begin(), offset_.end() - 1);
    locals_.resize(offset_.back());
    for (const trace::Access& a : accesses_) {
      const std::uint32_t group = group_of_[a.variable];
      if (group != kNoGroup) locals_[next[group]++] = to_local_[a.variable];
    }
  }

  /// One stable counting pass: `out` receives `in` ordered by the local
  /// id in bits [shift, shift + 32) of each key (ids < n).
  void CountingPass(const std::vector<std::uint64_t>& in,
                    std::vector<std::uint64_t>& out, std::size_t n,
                    unsigned shift) {
    bucket_.assign(n + 1, 0);
    for (const std::uint64_t key : in) {
      ++bucket_[((key >> shift) & 0xFFFFFFFFULL) + 1];
    }
    for (std::size_t b = 0; b < n; ++b) bucket_[b + 1] += bucket_[b];
    for (const std::uint64_t key : in) {
      out[bucket_[(key >> shift) & 0xFFFFFFFFULL]++] = key;
    }
  }

  std::span<const trace::Access> accesses_;
  std::vector<std::uint32_t> group_of_;  // by global id
  std::vector<std::uint32_t> to_local_;  // by global id, within its group
  std::vector<std::size_t> count_;       // accesses per group
  std::vector<std::vector<VariableId>> globals_;  // per group, first use
  std::vector<std::vector<VariableId>> unused_;   // per group, ascending
  std::vector<std::size_t> offset_;     // group -> its slice of locals_
  std::vector<std::uint32_t> locals_;   // accesses as local ids, by group
  // Reused across groups:
  LocalProblem local_;
  std::vector<std::uint64_t> transitions_;  // keys, then distinct keys
  std::vector<std::uint64_t> sorted_;       // keys by hi
  std::vector<std::size_t> bucket_;         // counting-pass offsets
  std::vector<std::uint64_t> weights_;      // by distinct key
  std::vector<std::size_t> cursor_;         // CSR fill positions
  std::vector<PlacedNeighbor> windows_;     // ShiftsReduceChain's
};

std::vector<VariableId> FinishOrder(const LocalProblem& local,
                                    const std::vector<std::size_t>& sequence) {
  std::vector<VariableId> order;
  order.reserve(sequence.size() + local.unused.size());
  for (const std::size_t l : sequence) order.push_back(local.globals[l]);
  order.insert(order.end(), local.unused.begin(), local.unused.end());
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
/// `choose_front` decide which end it is appended to.
///
/// Contract: `choose_front(v, order)` is called EXACTLY ONCE per remaining
/// vertex, and v is placed at the chosen end immediately afterwards.
/// Callbacks may carry state keyed on that contract — ShiftsReduceChain's
/// does (it tracks each placed vertex's virtual chain coordinate).
template <typename ChooseFront>
std::vector<std::size_t> GrowChain(const LocalProblem& local,
                                   ChooseFront&& choose_front) {
  const std::size_t n = local.size();
  std::vector<std::size_t> chain;
  if (n == 0) return chain;
  std::vector<bool> placed(n, false);
  std::vector<std::uint64_t> gain(n, 0);

  std::deque<std::size_t> order;
  auto place = [&](std::size_t v) {
    placed[v] = true;
    for (const Edge& e : local.adjacency(v)) {
      if (!placed[e.neighbor]) gain[e.neighbor] += e.weight;
    }
  };

  const std::size_t seed = SeedVertex(local);
  order.push_back(seed);
  place(seed);

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = kNoIndex;
    for (std::size_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
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
    if (choose_front(best, order)) order.push_front(best);
    else order.push_back(best);
    place(best);
  }
  chain.assign(order.begin(), order.end());
  return chain;
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

std::vector<std::size_t> ChenChain(const LocalProblem& local) {
  return GrowChain(local, [&local](std::size_t v,
                                   const std::deque<std::size_t>& order) {
    // Attach to the end the candidate is more strongly connected to.
    const std::uint64_t to_front = EdgeWeightBetween(local, v, order.front());
    const std::uint64_t to_back = EdgeWeightBetween(local, v, order.back());
    return to_front > to_back;
  });
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

std::vector<std::size_t> ShiftsReduceChain(
    const LocalProblem& local, std::vector<PlacedNeighbor>& windows) {
  // Distance-discounted attachment: an edge to a variable i positions from
  // an end would cost (i+1) shifts per traversal if we append at that end.
  //
  // Scored over the candidate's placed NEIGHBORS (the transition weights),
  // not by scanning the whole chain per candidate: O(deg) per decision —
  // the same pairwise-transition idea the CostEvaluator
  // (core/cost_evaluator.h) builds on. Virtual coordinates track each
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
  windows.resize(2 * local.edges.size());
  std::vector<std::size_t> head(n);  // u's window is [head[u], tail[u])
  std::vector<std::size_t> tail(n);
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
  auto chain = GrowChain(local, [&](std::size_t v,
                                    const std::deque<std::size_t>& order) {
    if (order.size() == 1) enter(order.front(), 0, false);  // the seed
    double front_score = 0.0;
    for (std::size_t i = head[v]; i < tail[v]; ++i) {
      front_score += static_cast<double>(windows[i].weight) /
                     static_cast<double>(windows[i].coord - front_coord + 1);
    }
    double back_score = 0.0;
    for (std::size_t i = tail[v]; i > head[v]; --i) {
      back_score += static_cast<double>(windows[i - 1].weight) /
                    static_cast<double>(back_coord - windows[i - 1].coord + 1);
    }
    const bool to_front = front_score > back_score;
    enter(v, to_front ? --front_coord : ++back_coord, to_front);
    return to_front;
  });

  // Local refinement: adjacent transpositions on the exact edge-sum
  // objective until a fixed point (bounded pass count for safety).
  if (n < 2) return chain;
  std::vector<std::int64_t> pos(n, 0);
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

std::vector<VariableId> Order(IntraHeuristic heuristic,
                              GroupedProblems& problems,
                              std::uint32_t group) {
  // OFU's order is the first-use order Index() already holds.
  if (heuristic == IntraHeuristic::kOfu) return problems.FirstUseOrder(group);
  const LocalProblem& local = problems.Build(group);
  switch (heuristic) {
    case IntraHeuristic::kChen:
      return FinishOrder(local, ChenChain(local));
    case IntraHeuristic::kShiftsReduce:
      return FinishOrder(local, ShiftsReduceChain(local, problems.windows()));
    case IntraHeuristic::kGreedyEdge:
      return FinishOrder(local, GreedyEdgeChain(local));
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
  GroupedProblems problems(accesses, num_variables);
  problems.AddGroup(vars);
  problems.Index();
  if (heuristic == IntraHeuristic::kNone) return {vars.begin(), vars.end()};
  return Order(heuristic, problems, 0);
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first_dbc,
                std::uint32_t end_dbc) {
  if (first_dbc > end_dbc || end_dbc > placement.num_dbcs()) {
    throw std::invalid_argument("ApplyIntra: DBC range out of bounds");
  }
  if (heuristic == IntraHeuristic::kNone) return;
  GroupedProblems problems(seq.accesses(), seq.num_variables());
  std::vector<std::uint32_t> dbcs;  // by group
  for (std::uint32_t d = first_dbc; d < end_dbc; ++d) {
    if (placement.dbc(d).size() < 2) continue;
    problems.AddGroup(placement.dbc(d));
    dbcs.push_back(d);
  }
  if (dbcs.empty()) return;
  problems.Index();
  for (std::uint32_t group = 0; group < dbcs.size(); ++group) {
    placement.Reorder(dbcs[group], Order(heuristic, problems, group));
  }
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t dbc) {
  ApplyIntra(heuristic, seq, placement, dbc, dbc + 1);
}

}  // namespace rtmp::core
