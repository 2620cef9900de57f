// Online-policy registry: the name-keyed dispatch layer for online
// placement policies, mirroring the strategy registry (solution side)
// and the workload registry (input side).
//
// An online policy is a util::Recipe<OnlineConfig>: a name and summary
// plus which registry strategy re-seeds the placement, which phase
// detector triggers re-placement, how large the windows are, and whether
// migration is charged. Policies enter the evaluation matrix by name
// exactly like strategies do — sim::RunCell dispatches a cell name to
// whichever cell registry owns it and runs each sequence through
// online::RunOnlineSequence (online/online_cell.h), so
// `ExperimentOptions::extra_strategies`, `rtmbench` scenarios and
// `placement_explorer online` all accept policy names interchangeably
// with strategy names.
#pragma once

#include "online/engine.h"
#include "util/registry.h"

namespace rtmp::online {

/// A named OnlineConfig recipe (util/registry.h); Describe() gives its
/// name and summary, MakeConfig() the engine configuration.
using OnlinePolicy = util::Recipe<OnlineConfig>;

/// Name -> policy registry (util/registry.h), the same template as
/// core::StrategyRegistry and workloads::WorkloadRegistry.
using OnlinePolicyRegistry = util::Registry<OnlinePolicy>;

/// RAII self-registration into OnlinePolicyRegistry::Global(), for
/// policies defined outside this library (see util::Registrar).
using OnlinePolicyRegistrar = util::Registrar<OnlinePolicy>;

/// Registers the built-in policies into `registry`:
///
///   online-static-<s>   one window over the whole trace, no detection —
///                       the oracle wrapper, bit-identical to strategy s;
///   online-fixed-<s>    256-access windows, re-seed considered every
///                       window boundary (period-1 epoch baseline);
///   online-ewma-<s>     256-access windows, EWMA-drift detection plus
///                       CostEvaluator refinement between phases;
///   online-cusum-<s>    256-access windows, CUSUM change-point detection
///                       (integrates slow drifts a single-window EWMA
///                       test misses) plus refinement;
///
/// for s in {dma-sr, afd-ofu}. Global() calls this once; tests use it to
/// build fresh registries.
void RegisterBuiltinOnlinePolicies(OnlinePolicyRegistry& registry);

/// OnlinePolicyRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(OnlinePolicyRegistry& registry) {
  RegisterBuiltinOnlinePolicies(registry);
}

}  // namespace rtmp::online
