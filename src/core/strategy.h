// Enum-based strategy identifiers and the legacy entry points over them.
//
// The six placement solutions evaluated in §IV-A (plus extensions) are
// addressable by name ("afd-ofu", "dma-sr", "ga", "rw", ...). Dispatch
// lives in core/strategy_registry.h: ParseStrategy, RunStrategy and
// PaperStrategies below are thin shims over StrategyRegistry::Global(),
// kept so existing call sites migrate incrementally. New code — and any
// code that wants strategies beyond the built-in enum combinations —
// should resolve strategies through the registry directly.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "core/random_walk.h"
#include "trace/access_sequence.h"

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

/// Inverse of ToString; nullopt for names not in StrategyRegistry::Global()
/// (and for registered strategies without an enum-backed spec).
[[nodiscard]] std::optional<StrategySpec> ParseStrategy(std::string_view name);

/// Every name registered in StrategyRegistry::Global(), sorted — the
/// single source of truth for accepted strategy names (usage strings,
/// docs, round-trip tests).
[[nodiscard]] std::vector<std::string> RegisteredStrategyNames();

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

/// Runs one strategy end to end and returns the placement. Shim over
/// StrategyRegistry::Global() — resolve the strategy yourself for the full
/// PlacementResult (cost, wall time, search effort used).
[[nodiscard]] Placement RunStrategy(const StrategySpec& spec,
                                    const trace::AccessSequence& seq,
                                    std::uint32_t num_dbcs,
                                    std::uint32_t capacity,
                                    const StrategyOptions& options = {});

/// The six solutions of §IV-A, in the paper's listing order:
/// AFD-OFU, DMA-OFU, DMA-Chen, DMA-SR, GA, RW.
[[nodiscard]] std::vector<StrategySpec> PaperStrategies();

}  // namespace rtmp::core
