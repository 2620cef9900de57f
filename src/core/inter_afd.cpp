#include "core/inter_afd.h"

#include <algorithm>
#include <stdexcept>

namespace rtmp::core {

std::vector<VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq) {
  if (stats.size() > seq.num_variables()) {
    throw std::invalid_argument(
        "SortByFrequencyDescending: stats cover unregistered variables");
  }
  // Walking ids in name order makes a stable sort on frequency alone
  // break ties by name. Zero-frequency ids (most of a long session's
  // variable space in an online window) never move, so only the accessed
  // ones are sorted and the rest follow in name order.
  std::vector<VariableId> order;
  order.reserve(stats.size());
  seq.ForEachIdByName([&](VariableId v) {
    if (v < stats.size() && stats[v].frequency > 0) order.push_back(v);
  });
  std::stable_sort(order.begin(), order.end(),
                   [&stats](VariableId a, VariableId b) {
                     return stats[a].frequency > stats[b].frequency;
                   });
  seq.ForEachIdByName([&](VariableId v) {
    if (v < stats.size() && stats[v].frequency == 0) order.push_back(v);
  });
  return order;
}

Placement DistributeAfd(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const AfdOptions& options) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("DistributeAfd: variables exceed capacity");
  }
  const auto stats = trace::ComputeVariableStats(seq);
  const auto order = SortByFrequencyDescending(stats, seq);

  Placement placement(n, num_dbcs, capacity);
  std::uint32_t next_dbc = 0;
  for (const VariableId v : order) {
    // Deal round-robin, skipping full DBCs (capacity permitting is
    // guaranteed by the check above).
    std::uint32_t attempts = 0;
    while (placement.FreeIn(next_dbc) == 0) {
      next_dbc = (next_dbc + 1) % num_dbcs;
      if (++attempts > num_dbcs) {
        throw std::logic_error("DistributeAfd: no free DBC despite capacity");
      }
    }
    placement.Append(next_dbc, v);
    next_dbc = (next_dbc + 1) % num_dbcs;
  }

  ApplyIntra(options.intra, seq, placement, 0, num_dbcs);
  return placement;
}

}  // namespace rtmp::core
