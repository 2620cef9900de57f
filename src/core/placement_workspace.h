// rtmlint: hot-path — every online re-seed runs in this scratch; keep it
// allocation-free once warm (resize up front, indexed writes).
//
// PlacementWorkspace: the reusable scratch of the constructive placement
// strategies (AFD, DMA, multi-DMA and the intra heuristics they apply).
//
// Each of those calls needs V-sized per-variable arrays (stats, the
// disjoint flags, the frequency order), per-DBC working lists and the
// intra heuristics' per-group problems and chains. A caller that places
// many times — the online engine re-seeds on every phase change — owns
// one workspace and passes it to every call (PlacementRequest::workspace),
// so once the buffers have grown to the largest call seen, a re-seed
// allocates only the Placement it returns. Callers that pass none get a
// fresh local workspace per call.
//
// Between calls the contents mean nothing to a caller, only their
// capacity does: every function that takes a workspace overwrites what it
// reads. Two parts keep state for their own next call — `stats` with
// `first_use`, and the grouped problems' lookups — so that a call resets
// only what the previous one touched; write a workspace only through the
// functions that take it. One workspace serves one call at a time; it is
// not thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/placement.h"
#include "trace/access_sequence.h"
#include "trace/variable_stats.h"

namespace rtmp::core {

/// One weighted adjacency entry: `weight` counts how often the owner and
/// `neighbor` are accessed consecutively (self pairs excluded).
struct Edge {
  VariableId neighbor = 0;
  std::uint64_t weight = 0;
};

/// A placed neighbor in ShiftsReduce's scoring: its chain coordinate and
/// the weight of its edge to the vertex that owns the window.
struct PlacedNeighbor {
  std::int64_t coord = 0;
  std::uint64_t weight = 0;
};

/// Local view of one DBC's subproblem: dense local ids for the accessed
/// part of the group, frequencies and a CSR adjacency structure from the
/// group's accesses. The id lists view GroupedProblems' storage.
struct LocalProblem {
  std::span<const VariableId> globals;   // local -> global id, first use
  std::span<const VariableId> unused;    // never accessed, ascending id
  std::vector<std::uint64_t> frequency;  // by local id
  std::vector<std::size_t> edge_begin;   // CSR offsets by local id, n + 1
  std::vector<Edge> edges;               // every adjacency list, flat

  [[nodiscard]] std::size_t size() const noexcept { return globals.size(); }

  /// u's edges, in ascending neighbor order.
  [[nodiscard]] std::span<const Edge> adjacency(std::size_t u) const {
    return std::span<const Edge>(edges).subspan(
        edge_begin[u], edge_begin[u + 1] - edge_begin[u]);
  }
};

/// The local problems of several disjoint variable groups (one group per
/// DBC) over one access stream, built in reused storage: one group lookup
/// and one local-id map by global id serve every group, and every
/// group's members sit in one flat array. Index() reads the stream once
/// for every group's first-use order; the first Build() reads it once
/// more to bucket every group's accesses (as local ids) into one
/// |S|-sized buffer, so each group's problem then costs only its own
/// accesses — no per-group scan of the stream and no per-group V-sized
/// buffer. The lookups hold entries only for the registered variables
/// and are cleared through the registration list, so a set of groups
/// over few variables costs nothing per idle id of a large space.
class GroupedProblems {
 public:
  /// Starts a new set of groups over `accesses` and a space of
  /// `num_variables` ids. Keeps every buffer's capacity.
  void Reset(std::span<const trace::Access> accesses,
             std::size_t num_variables);

  /// Registers the next group. Throws std::invalid_argument on an id
  /// outside the variable space or an id already in some group.
  void AddGroup(std::span<const VariableId> vars);

  /// One pass over the stream assigns every group's local ids in order of
  /// first access; when some registered variable was never accessed, one
  /// sweep over ids appends every group's never-accessed members in
  /// ascending id order. Call once, after the last AddGroup. Throws
  /// std::invalid_argument on an access id outside the variable space.
  void Index();

  /// Group `group`'s order of first use: its accessed variables in order
  /// of first access, then its never-accessed ones in ascending id order
  /// (the whole kOfu answer, with no adjacency). Valid after Index(),
  /// until the next Reset.
  [[nodiscard]] std::span<const VariableId> FirstUseOrder(
      std::uint32_t group) const {
    return std::span<const VariableId>(ordered_).subspan(
        begin_[group], begin_[group + 1] - begin_[group]);
  }

  /// Group `group`'s local problem: dense local ids, frequencies and a
  /// deterministic adjacency from its accesses. Call after Index(). The
  /// returned problem is overwritten by the next Build.
  const LocalProblem& Build(std::uint32_t group);

 private:
  static constexpr std::uint32_t kNoGroup =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint32_t kNoLocal =
      std::numeric_limits<std::uint32_t>::max();

  /// Every group's accesses, as local ids in stream order, land in the
  /// group's slice of `locals_`.
  void Bucket();

  /// One stable counting pass: `out` receives `in` ordered by the local
  /// id in bits [shift, shift + 32) of each key (ids < n).
  void CountingPass(std::span<const std::uint64_t> in,
                    std::span<std::uint64_t> out, std::size_t n,
                    unsigned shift);

  std::span<const trace::Access> accesses_;
  std::size_t num_variables_ = 0;
  /// By global id: kNoGroup / kNoLocal except at members_[0, marked_).
  std::vector<std::uint32_t> group_of_;
  std::vector<std::uint32_t> to_local_;  // within its group
  std::vector<VariableId> members_;      // registration order
  std::size_t marked_ = 0;
  std::size_t groups_ = 0;
  std::vector<std::size_t> begin_;     // group -> its slice of ordered_
  std::vector<std::size_t> accessed_;  // accessed members per group
  std::vector<std::size_t> count_;     // accesses per group
  std::vector<std::size_t> next_;      // fill cursors, by group
  std::vector<VariableId> ordered_;    // first use, then unused, by group
  bool bucketed_ = false;
  std::vector<std::size_t> offset_;    // group -> its slice of locals_
  std::vector<std::uint32_t> locals_;  // accesses as local ids, by group
  // Reused across groups:
  LocalProblem local_;
  std::vector<std::uint64_t> transitions_;  // keys, then distinct keys
  std::vector<std::uint64_t> sorted_;       // keys by hi
  std::vector<std::size_t> bucket_;         // counting-pass offsets
  std::vector<std::uint64_t> weights_;      // by distinct key
  std::vector<std::size_t> cursor_;         // CSR fill positions
};

/// The chain heuristics' scratch (GrowChain and ShiftsReduce), sized by
/// the largest group seen.
struct ChainScratch {
  std::vector<std::uint8_t> placed;   // by local id
  std::vector<std::uint64_t> gain;    // by local id
  /// The growing chain: 2n slots filled from the middle, so a front push
  /// is one store, like a back push.
  std::vector<std::size_t> ring;
  /// ShiftsReduce: each vertex's placed neighbors in coordinate order,
  /// the window [window_head[u], window_tail[u]) of `windows`.
  std::vector<PlacedNeighbor> windows;
  std::vector<std::size_t> window_head;
  std::vector<std::size_t> window_tail;
  std::vector<std::int64_t> pos;      // refinement: chain position
};

struct PlacementWorkspace {
  /// Algorithm 1's per-variable stats and the accessed variables in order
  /// of first occurrence, kept in step by trace::ComputeVariableStats
  /// (write them only through it).
  std::vector<trace::VariableStats> stats;
  std::vector<VariableId> first_use;

  // SelectDisjointVariables: the candidates by first and by last
  // occurrence, Fenwick ranks and tree, nested frequencies, and the
  // selected set Vdj (DistributeDma leaves its trimmed Vdj here).
  std::vector<VariableId> by_first;
  std::vector<std::size_t> by_last;
  std::vector<std::size_t> rank;
  std::vector<std::uint64_t> tree;
  std::vector<std::uint64_t> nested;
  std::vector<VariableId> disjoint;

  /// SortByFrequencyDescending: accessed ids keyed for the sort, then the
  /// order itself.
  struct FrequencyKey {
    std::uint64_t frequency = 0;
    std::uint32_t name_rank = 0;
    VariableId variable = 0;
  };
  std::vector<FrequencyKey> keys;
  std::vector<VariableId> order;

  // The inter-DBC deal: DMA's disjoint flags, the variables left to deal,
  // the ring of DBCs with room, each DBC's fill, and the DBC of every
  // never-accessed variable whose append DMA defers past the intra step.
  std::vector<std::uint8_t> is_disjoint;
  std::vector<VariableId> leftovers;
  std::vector<std::uint32_t> open;
  std::vector<std::uint32_t> fill;
  std::vector<std::uint32_t> dbc_of;

  // ApplyIntra: the grouped problems, the DBC of each group, the chain
  // scratch and the order handed to Placement::Reorder.
  GroupedProblems problems;
  std::vector<std::uint32_t> dbcs;
  ChainScratch chain;
  std::vector<VariableId> dbc_order;
};

}  // namespace rtmp::core
