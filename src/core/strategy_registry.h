// Strategy registry: the open, name-keyed dispatch layer for placement
// strategies.
//
// The paper's §IV-A evaluates six fixed solutions; this API makes the set
// open-ended. A strategy is anything that can turn a PlacementRequest into
// a PlacementResult; it registers itself under a unique name and is looked
// up by that name at run time. The experiment engine (sim/experiment.h),
// the bench binaries and the examples all resolve strategies through the
// registry, so new strategies (ShiftsReduce variants, reconfigurable
// layouts, ...) plug in without touching core dispatch code.
//
// The built-in strategies also carry their enum-based StrategySpec
// (core/strategy.h); PaperStrategies() resolves the paper's six here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/placement.h"
#include "core/strategy.h"
#include "trace/access_sequence.h"
#include "util/registry.h"

namespace rtmp::core {

struct PlacementWorkspace;  // core/placement_workspace.h

/// Everything a strategy needs to produce a placement. The sequence is
/// borrowed: it must outlive the Run() call.
struct PlacementRequest {
  const trace::AccessSequence* sequence = nullptr;
  std::uint32_t num_dbcs = 0;
  std::uint32_t capacity = kUnboundedCapacity;
  StrategyOptions options{};
  /// When false, constructive strategies skip the O(accesses) analytic
  /// cost pass and PlacementResult::cost is 0 — for callers that only
  /// need the placement. Search strategies report their cost either way
  /// (it falls out of the search).
  bool compute_cost = true;
  /// Scratch for the constructive strategies (AFD, DMA, multi-DMA and
  /// their intra step), borrowed for the Run() call. A caller that places
  /// repeatedly — the online engine's re-seed — passes the same
  /// workspace every time, so a warm call allocates only the returned
  /// placement. Null means a fresh workspace per call. A workspace must
  /// not be shared by concurrent calls; search strategies ignore it.
  /// Results never depend on it.
  PlacementWorkspace* workspace = nullptr;
};

/// A placement plus the bookkeeping the experiment engine reports.
struct PlacementResult {
  /// Starts as an empty zero-variable placement; Run() replaces it.
  Placement placement{0, 1};
  /// Shift cost of `placement` under request.options.cost.
  std::uint64_t cost = 0;
  /// Wall time of the run in milliseconds. Stamped by RunTimed(), not by
  /// the strategies themselves — a raw Run() call leaves it 0.
  double wall_ms = 0.0;
  /// Candidate placements evaluated: the search effort actually used.
  /// Search strategies report their true budget (GA fitness evaluations,
  /// RW iterations); the constructive heuristics build one candidate.
  std::size_t evaluations = 1;
};

/// Self-description of a registered strategy.
struct StrategyInfo {
  /// Registry key: lowercase, unique ("dma-sr", "ga", ...).
  std::string name;
  /// One-line human-readable description for --help output and docs.
  std::string summary;
  /// True when the strategy consumes the GA/RW effort knobs and a seed
  /// (ScaleSearchEffort applies; results depend on options.ga/options.rw).
  bool search_based = false;
  /// Set for the built-in enum-backed strategies, with
  /// ToString(*spec) == name; external strategies leave it empty.
  std::optional<StrategySpec> spec;
};

/// Abstract placement strategy. Implementations must be stateless or
/// internally synchronized: the experiment engine calls Run() from many
/// threads concurrently on one instance.
class PlacementStrategy {
 public:
  virtual ~PlacementStrategy() = default;

  [[nodiscard]] virtual const StrategyInfo& Describe() const noexcept = 0;

  /// Produces a complete placement for the request. Throws
  /// std::invalid_argument on requests the strategy cannot serve (e.g.
  /// insufficient capacity). Implementations need not fill
  /// PlacementResult::wall_ms; use RunTimed() to measure it.
  [[nodiscard]] virtual PlacementResult Run(
      const PlacementRequest& request) const = 0;
};

/// Run() with PlacementResult::wall_ms stamped from a steady clock around
/// the call — one timing implementation for built-in AND external
/// strategies. The experiment engine and the CLI tools go through this.
[[nodiscard]] PlacementResult RunTimed(const PlacementStrategy& strategy,
                                       const PlacementRequest& request);

/// Name -> strategy registry (util/registry.h): case-insensitive lookups,
/// lazily constructed cached instances, thread-safe throughout.
using StrategyRegistry = util::Registry<PlacementStrategy>;

/// RAII self-registration into StrategyRegistry::Global(), for
/// strategies defined outside this library (see util::Registrar).
using StrategyRegistrar = util::Registrar<PlacementStrategy>;

/// Registers the built-in strategies into `registry`: every
/// {afd, dma, dma2} x {none, ofu, chen, sr, ge} combination plus "ga" and
/// "rw". Global() calls this once; tests use it to build fresh registries.
void RegisterBuiltinStrategies(StrategyRegistry& registry);

/// StrategyRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(StrategyRegistry& registry) {
  RegisterBuiltinStrategies(registry);
}

}  // namespace rtmp::core
