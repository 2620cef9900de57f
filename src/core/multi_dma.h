// Multi-set DMA — the paper's §VI future-work direction, implemented as an
// extension: instead of extracting ONE set of disjoint-lifespan variables,
// keep re-running the Algorithm 1 selection on the remaining variables,
// giving each extracted set its own DBC (in access order) while DBCs are
// available, then distribute the rest as usual. The ablation bench
// (bench/ablation_dma) compares this against single-set DMA.
#pragma once

#include <cstdint>
#include <vector>

#include "core/inter_dma.h"
#include "core/placement.h"
#include "trace/access_sequence.h"

namespace rtmp::core {

struct MultiDmaOptions {
  DmaOptions base{};
  /// Upper bound on extracted disjoint sets; 0 derives half the DBC count
  /// (dedicating more starves the non-disjoint remainder of DBCs, which
  /// costs far more than a marginal extra set saves).
  std::uint32_t max_sets = 0;
  /// A set must capture at least this fraction of the trace's accesses to
  /// be worth a dedicated DBC; weaker sets go back to the frequency pool.
  double min_traffic_share = 0.05;
};

struct MultiDmaResult {
  Placement placement;
  /// Extracted sets in extraction order; each is in access order.
  std::vector<std::vector<VariableId>> sets;
  /// Leading DBC count used by the sets (one DBC per set here).
  std::uint32_t disjoint_dbc_count = 0;
};

[[nodiscard]] MultiDmaResult DistributeMultiDma(
    const trace::AccessSequence& seq, std::uint32_t num_dbcs,
    std::uint32_t capacity, const MultiDmaOptions& options = {});

/// The same, with the stats, the frequency order and the intra step's
/// scratch taken from `workspace` (the extracted sets are still built
/// afresh).
[[nodiscard]] MultiDmaResult DistributeMultiDma(
    const trace::AccessSequence& seq, std::uint32_t num_dbcs,
    std::uint32_t capacity, const MultiDmaOptions& options,
    PlacementWorkspace& workspace);

}  // namespace rtmp::core
