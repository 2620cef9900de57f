// Cache-policy registry: the name-keyed dispatch layer for hybrid-memory
// cache configurations, mirroring the strategy / online-policy / serve-
// policy registries.
//
// A cache policy is a util::Recipe<CacheConfig>: a name and summary plus
// which eviction policy runs the resident set, what fraction of the
// working set fits on the device, and which wrapped online engine serves
// the hits. Policies enter the evaluation matrix by name exactly like
// strategies and online policies do — sim::RunCell dispatches a cell
// name to whichever cell registry owns it and runs each sequence through
// cache::RunCacheSequence (cache/cache_cell.h), so
// `ExperimentOptions::extra_strategies`, `rtmbench` scenarios and
// `placement_explorer cache` all accept cache policy names
// interchangeably.
//
// The built-ins wrap the SAME engine recipe as the online policy
// "online-fixed-dma-sr"; a capacity-100% cache cell is therefore
// bit-identical to that online cell (the hybrid mode's oracle anchor in
// bench/harness/scenarios/fig_cache.cpp).
#pragma once

#include "cache/engine.h"
#include "util/registry.h"

namespace rtmp::cache {

/// A named CacheConfig recipe (util/registry.h); Describe() gives its
/// name and summary, MakeConfig() the cache configuration (its
/// capacity_slots is resolved per sequence by the cell).
using CachePolicy = util::Recipe<CacheConfig>;

/// Name -> policy registry (util/registry.h).
using CachePolicyRegistry = util::Registry<CachePolicy>;

/// RAII self-registration into CachePolicyRegistry::Global(), for
/// policies defined outside this library (see util::Registrar).
using CachePolicyRegistrar = util::Registrar<CachePolicy>;

/// Registers the built-in policies into `registry`:
///
///   cache-<e>-c<r>   eviction policy cache-<e> over a resident set of
///                    r% of the working set, hits served by the
///                    online-fixed-dma-sr engine recipe (256-access
///                    windows, re-seed weighed every boundary),
///
/// for e in {lru, lfu, sample, shift-aware} and r in {25, 50, 100}.
/// The c100 members are the oracle anchors: no miss can occur, so they
/// are bit-identical to online-fixed-dma-sr. Global() calls this once;
/// tests use it to build fresh registries.
void RegisterBuiltinCachePolicies(CachePolicyRegistry& registry);

/// CachePolicyRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(CachePolicyRegistry& registry) {
  RegisterBuiltinCachePolicies(registry);
}

}  // namespace rtmp::cache
