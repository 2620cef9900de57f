#include "trace/variable_stats.h"

namespace rtmp::trace {

std::vector<VariableStats> ComputeVariableStats(const AccessSequence& seq) {
  std::vector<VariableStats> stats;
  std::vector<VariableId> first_use;
  ComputeVariableStats(seq, stats, first_use);
  return stats;
}

void ComputeVariableStats(const AccessSequence& seq,
                          std::vector<VariableStats>& stats,
                          std::vector<VariableId>& first_use) {
  for (const VariableId v : first_use) stats[v] = VariableStats{};
  first_use.clear();
  stats.resize(seq.num_variables());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const VariableId v = seq[i].variable;
    VariableStats& s = stats[v];
    if (s.first == kNever) {
      // Listed before the entry changes, so a throw leaves the pair in
      // the state the next call expects.
      first_use.push_back(v);
      s.first = i;
    }
    ++s.frequency;
    s.last = i;
  }
}

bool LifespansDisjoint(const VariableStats& a,
                       const VariableStats& b) noexcept {
  if (a.first == kNever || b.first == kNever) return true;
  return a.last < b.first || b.last < a.first;
}

bool LifespanNestedWithin(const VariableStats& inner,
                          const VariableStats& outer) noexcept {
  if (inner.first == kNever || outer.first == kNever) return false;
  return inner.first > outer.first && inner.last < outer.last;
}

}  // namespace rtmp::trace
