// rtmlint: hot-path — the grouped intra problems of every online re-seed
// are built here; keep it allocation-free once warm (resize up front,
// indexed writes).
#include "core/placement_workspace.h"

#include <algorithm>
#include <stdexcept>

namespace rtmp::core {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// The first `n` entries of `buffer`, growing it when it is shorter. The
/// entries hold stale values for the caller to overwrite; the buffer
/// never shrinks, so a warm buffer is never zeroed again.
template <typename T>
std::span<T> Room(std::vector<T>& buffer, std::size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return std::span<T>(buffer).first(n);
}

}  // namespace

void GroupedProblems::Reset(std::span<const trace::Access> accesses,
                            std::size_t num_variables) {
  // Only the previous registrations hold entries; an exception thrown
  // mid-registration left its marks counted in marked_ too.
  for (std::size_t i = 0; i < marked_; ++i) {
    group_of_[members_[i]] = kNoGroup;
    to_local_[members_[i]] = kNoLocal;
  }
  marked_ = 0;
  if (group_of_.size() < num_variables) {
    group_of_.resize(num_variables, kNoGroup);
    to_local_.resize(num_variables, kNoLocal);
  }
  num_variables_ = num_variables;
  accesses_ = accesses;
  groups_ = 0;
  begin_.assign(1, 0);
  bucketed_ = false;
}

void GroupedProblems::AddGroup(std::span<const VariableId> vars) {
  const auto group = static_cast<std::uint32_t>(groups_);
  if (members_.size() < marked_ + vars.size()) {
    members_.resize(marked_ + vars.size());
  }
  for (const VariableId v : vars) {
    if (v >= num_variables_) {
      throw std::invalid_argument(
          "intra heuristics: variable id outside the variable space");
    }
    if (group_of_[v] != kNoGroup) {
      throw std::invalid_argument("intra heuristics: variable listed twice");
    }
    group_of_[v] = group;
    members_[marked_++] = v;
  }
  ++groups_;
  begin_.resize(groups_ + 1);
  begin_[groups_] = begin_[group] + vars.size();
}

void GroupedProblems::Index() {
  accessed_.assign(groups_, 0);
  count_.assign(groups_, 0);
  ordered_.resize(marked_);
  std::size_t accessed = 0;
  for (const trace::Access& a : accesses_) {
    if (a.variable >= num_variables_) {
      throw std::invalid_argument(
          "intra heuristics: access id outside the variable space");
    }
    const std::uint32_t group = group_of_[a.variable];
    if (group == kNoGroup) continue;
    ++count_[group];
    if (to_local_[a.variable] == kNoLocal) {
      to_local_[a.variable] = static_cast<std::uint32_t>(accessed_[group]);
      ordered_[begin_[group] + accessed_[group]++] = a.variable;
      ++accessed;
    }
  }
  if (accessed == marked_) return;
  // Each group's never-accessed members follow its accessed ones.
  next_.resize(groups_);
  for (std::size_t g = 0; g < groups_; ++g) {
    next_[g] = begin_[g] + accessed_[g];
  }
  for (VariableId v = 0; v < num_variables_; ++v) {
    const std::uint32_t group = group_of_[v];
    if (group != kNoGroup && to_local_[v] == kNoLocal) {
      ordered_[next_[group]++] = v;
    }
  }
}

void GroupedProblems::Bucket() {
  offset_.resize(groups_ + 1);
  next_.resize(groups_);
  offset_[0] = 0;
  for (std::size_t g = 0; g < groups_; ++g) {
    offset_[g + 1] = offset_[g] + count_[g];
    next_[g] = offset_[g];
  }
  locals_.resize(offset_[groups_]);
  for (const trace::Access& a : accesses_) {
    const std::uint32_t group = group_of_[a.variable];
    if (group != kNoGroup) locals_[next_[group]++] = to_local_[a.variable];
  }
  bucketed_ = true;
}

const LocalProblem& GroupedProblems::Build(std::uint32_t group) {
  if (!bucketed_) Bucket();
  LocalProblem& local = local_;
  const std::span<const VariableId> members = FirstUseOrder(group);
  const std::size_t n = accessed_[group];
  local.globals = members.first(n);
  local.unused = members.subspan(n);
  local.frequency.assign(n, 0);
  // Packed (lo, hi) transition pairs, put in ascending order by two
  // stable counting passes (by hi, then by lo; both are local ids < n)
  // and run-length counted: edge weights accumulate in key order, so
  // adjacency construction is deterministic with no hash-ordered
  // container in the path (the adjacency lists feed heuristic
  // tie-breaks and, through them, the golden-checked reports). A group
  // of k accesses has at most k - 1 transitions.
  const std::span<const std::uint32_t> accesses(locals_.data() + offset_[group],
                                                count_[group]);
  const std::span<std::uint64_t> room = Room(transitions_, accesses.size());
  std::size_t num_keys = 0;
  std::size_t prev = kNoIndex;
  for (const std::uint32_t access : accesses) {
    const std::size_t cur = access;
    ++local.frequency[cur];
    if (prev != kNoIndex && prev != cur) {
      const std::uint64_t lo = std::min(prev, cur);
      const std::uint64_t hi = std::max(prev, cur);
      room[num_keys++] = (lo << 32) | hi;
    }
    prev = cur;
  }
  const std::span<std::uint64_t> keys = room.first(num_keys);
  const std::span<std::uint64_t> sorted = Room(sorted_, num_keys);
  CountingPass(keys, sorted, n, 0);
  CountingPass(sorted, keys, n, 32);
  // Run-length count in place: the distinct keys move to the front of
  // `keys`, their weights to `weights`, and each distinct key adds one
  // edge to both endpoints' lists.
  local.edge_begin.assign(n + 1, 0);
  const std::span<std::uint64_t> weights = Room(weights_, num_keys);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < num_keys;) {
    const std::uint64_t key = keys[i];
    std::size_t j = i;
    while (j < num_keys && keys[j] == key) ++j;
    keys[distinct] = key;
    weights[distinct] = j - i;
    ++distinct;
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
  // ascending hi. The intra heuristics' edge lookups rely on it.
  cursor_.assign(local.edge_begin.begin(), local.edge_begin.end() - 1);
  local.edges.resize(local.edge_begin[n]);
  for (std::size_t i = 0; i < distinct; ++i) {
    const auto u = static_cast<std::size_t>(keys[i] >> 32);
    const auto v = static_cast<std::size_t>(keys[i] & 0xFFFFFFFFULL);
    local.edges[cursor_[u]++] = {static_cast<VariableId>(v), weights[i]};
    local.edges[cursor_[v]++] = {static_cast<VariableId>(u), weights[i]};
  }
  return local;
}

void GroupedProblems::CountingPass(std::span<const std::uint64_t> in,
                                   std::span<std::uint64_t> out,
                                   std::size_t n, unsigned shift) {
  bucket_.assign(n + 1, 0);
  for (const std::uint64_t key : in) {
    ++bucket_[((key >> shift) & 0xFFFFFFFFULL) + 1];
  }
  for (std::size_t b = 0; b < n; ++b) bucket_[b + 1] += bucket_[b];
  for (const std::uint64_t key : in) {
    out[bucket_[(key >> shift) & 0xFFFFFFFFULL]++] = key;
  }
}

}  // namespace rtmp::core
