#include "core/inter_afd.h"

#include <algorithm>
#include <stdexcept>

#include "core/placement_workspace.h"

namespace rtmp::core {

std::vector<VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq) {
  PlacementWorkspace workspace;
  (void)SortByFrequencyDescending(stats, seq, workspace);
  return std::move(workspace.order);
}

std::span<const VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq, PlacementWorkspace& workspace) {
  if (stats.size() > seq.num_variables()) {
    throw std::invalid_argument(
        "SortByFrequencyDescending: stats cover unregistered variables");
  }
  // One walk over the ids in name order. Accessed ids are keyed with
  // their rank in that walk: sorting the keys by descending frequency,
  // then ascending rank, is exactly a stable sort on frequency over the
  // name order (ties by name), without a merge buffer. Zero-frequency
  // ids (most of a long session's variable space in an online window)
  // never move: they go straight into `order`, in name order, and then
  // behind the accessed ones.
  using FrequencyKey = PlacementWorkspace::FrequencyKey;
  std::vector<FrequencyKey>& keys = workspace.keys;
  std::vector<VariableId>& order = workspace.order;
  keys.resize(stats.size());
  order.resize(stats.size());
  std::size_t accessed = 0;
  std::size_t idle = 0;
  std::uint32_t rank = 0;
  seq.ForEachIdByName([&](VariableId v) {
    if (v >= stats.size()) return;
    const std::uint64_t frequency = stats[v].frequency;
    if (frequency > 0) {
      keys[accessed++] = {frequency, rank, v};
    } else {
      order[idle++] = v;
    }
    ++rank;
  });
  std::sort(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(accessed),
            [](const FrequencyKey& a, const FrequencyKey& b) {
              if (a.frequency != b.frequency) return a.frequency > b.frequency;
              return a.name_rank < b.name_rank;
            });
  std::copy_backward(order.begin(),
                     order.begin() + static_cast<std::ptrdiff_t>(idle),
                     order.end());
  for (std::size_t i = 0; i < accessed; ++i) order[i] = keys[i].variable;
  return order;
}

Placement DistributeAfd(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const AfdOptions& options) {
  PlacementWorkspace workspace;
  return DistributeAfd(seq, num_dbcs, capacity, options, workspace);
}

Placement DistributeAfd(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const AfdOptions& options,
                        PlacementWorkspace& workspace) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("DistributeAfd: variables exceed capacity");
  }
  trace::ComputeVariableStats(seq, workspace.stats, workspace.first_use);
  const std::span<const VariableId> order =
      SortByFrequencyDescending(workspace.stats, seq, workspace);

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

  ApplyIntra(options.intra, seq, placement, 0, num_dbcs, workspace);
  return placement;
}

}  // namespace rtmp::core
