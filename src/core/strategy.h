// Enum-based strategy identifiers.
//
// The six placement solutions evaluated in §IV-A (plus extensions) are
// addressable by name ("afd-ofu", "dma-sr", "ga", "rw", ...). Dispatch
// lives in core/strategy_registry.h: resolve a name through
// StrategyRegistry::Global(). A built-in strategy's StrategyInfo::spec is
// the StrategySpec below, and ToString(spec) gives its name back.
#pragma once

#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/intra_heuristics.h"
#include "core/random_walk.h"

namespace rtmp::core {

enum class InterPolicy { kAfd, kDma, kDmaMulti, kGa, kRandomWalk };

struct StrategySpec {
  InterPolicy inter = InterPolicy::kAfd;
  /// Intra policy (meaningful for kAfd/kDma/kDmaMulti; ignored by kGa/kRw).
  IntraHeuristic intra = IntraHeuristic::kOfu;

  friend bool operator==(const StrategySpec&, const StrategySpec&) = default;
};

/// "afd-ofu", "dma-chen", "dma-sr", "dma2-sr", "ga", "rw", ...
[[nodiscard]] std::string ToString(const StrategySpec& spec);

/// Tuning for the search-based strategies and the cost model.
struct StrategyOptions {
  GaOptions ga{};
  RwOptions rw{};
  CostOptions cost{};
};

/// Uniformly scales the GA/RW search effort (1.0 = the paper's parameters:
/// 200 generations, mu = lambda = 100, 60 000 RW iterations). Benches use
/// a small factor by default so the full suite runs in minutes. Throws
/// std::invalid_argument unless `factor` is positive and finite.
void ScaleSearchEffort(StrategyOptions& options, double factor);

/// The six solutions of §IV-A, in the paper's listing order:
/// AFD-OFU, DMA-OFU, DMA-Chen, DMA-SR, GA, RW.
[[nodiscard]] std::vector<StrategySpec> PaperStrategies();

}  // namespace rtmp::core
