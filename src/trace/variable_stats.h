// Per-variable summary of an access sequence: the paper's access frequency
// `Av`, first occurrence `Fv` and last occurrence `Lv` (Algorithm 1,
// lines 2-4). Positions are 0-based; a variable that never appears has
// frequency 0 and first/last == kNever.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "trace/access_sequence.h"

namespace rtmp::trace {

/// Sentinel position for variables absent from the sequence.
inline constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();

struct VariableStats {
  std::uint64_t frequency = 0;   // Av
  std::size_t first = kNever;    // Fv
  std::size_t last = kNever;     // Lv

  /// Lifespan |Lv - Fv| as defined in §III-B; 0 for absent variables.
  [[nodiscard]] std::size_t Lifespan() const noexcept {
    return first == kNever ? 0 : last - first;
  }

  friend bool operator==(const VariableStats&, const VariableStats&) = default;
};

/// Computes stats for every registered variable in one pass over `seq`.
[[nodiscard]] std::vector<VariableStats> ComputeVariableStats(
    const AccessSequence& seq);

/// The same stats, written into reused storage. On entry `stats` must
/// hold default entries except at the ids listed in `first_use`: the
/// state this function leaves (two empty vectors qualify). Only those
/// entries are reset, so a call costs O(|S|) plus the accessed variables,
/// not O(V), once `stats` has grown to seq.num_variables() (its size on
/// return). On return `first_use` lists the accessed variables in order
/// of first occurrence.
void ComputeVariableStats(const AccessSequence& seq,
                          std::vector<VariableStats>& stats,
                          std::vector<VariableId>& first_use);

/// Two variables have disjoint lifespans iff one's last occurrence precedes
/// the other's first (§III-B). Absent variables are disjoint from everything.
[[nodiscard]] bool LifespansDisjoint(const VariableStats& a,
                                     const VariableStats& b) noexcept;

/// True if `inner`'s lifespan lies strictly inside `outer`'s
/// (F_outer < F_inner and L_inner < L_outer) — the nesting relation of
/// Algorithm 1 line 10.
[[nodiscard]] bool LifespanNestedWithin(const VariableStats& inner,
                                        const VariableStats& outer) noexcept;

}  // namespace rtmp::trace
