// Serve-policy registry: named multi-tenant service recipes, the third
// member of the experiment cell-name space after placement strategies
// (core/strategy_registry.h) and online policies (online/policy.h).
//
// A serve policy is a util::Recipe<ServeConfig>: a name and summary plus
// how many shards the device is partitioned into, which online policy
// drives each shard's engine, and how tight the global migration budget
// is. sim::RunCell dispatches a cell name to whichever cell registry
// owns it and runs the benchmark through serve::RunServeBenchmark
// (serve/serve_cell.h), so serve policies enter RunMatrix grids,
// rtmbench scenarios and placement_explorer exactly like any other cell
// name.
#pragma once

#include "serve/service.h"
#include "util/registry.h"

namespace rtmp::serve {

/// A named ServeConfig recipe (util/registry.h); Describe() gives its
/// name and summary, MakeConfig() the service configuration.
using ServePolicy = util::Recipe<ServeConfig>;

/// Name -> policy registry (util/registry.h).
using ServePolicyRegistry = util::Registry<ServePolicy>;

/// RAII self-registration into ServePolicyRegistry::Global(), for
/// policies defined outside this library (see util::Registrar).
using ServePolicyRegistrar = util::Registrar<ServePolicy>;

/// Registers the built-in policies into `registry`:
///
///   serve-<N>s-static-<s>          N shards, each running the
///                                  online-static-<s> oracle engine;
///   serve-<N>s-ewma-<s>            N shards of online-ewma-<s>,
///                                  unlimited migration budget;
///   serve-<N>s-tight-ewma-<s>      as above with a tight global budget
///                                  (256 migration shifts per window);
///   serve-<N>s-loose-ewma-<s>      as above with a loose budget
///                                  (16384 shifts per window);
///
/// for N in {1, 2, 4} and s = dma-sr. Global() calls this once; tests
/// use it to build fresh registries.
void RegisterBuiltinServePolicies(ServePolicyRegistry& registry);

/// ServePolicyRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(ServePolicyRegistry& registry) {
  RegisterBuiltinServePolicies(registry);
}

}  // namespace rtmp::serve
