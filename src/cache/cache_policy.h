// Cache-policy registry: the name-keyed dispatch layer for hybrid-memory
// cache configurations, mirroring the strategy / online-policy / serve-
// policy registries.
//
// A cache policy is a named CacheConfig recipe: which eviction policy
// runs the resident set, what fraction of the working set fits on the
// device, and which wrapped online engine serves the hits. Policies
// enter the evaluation matrix by name exactly like strategies and
// online policies do — sim::RunCell dispatches a cell name to whichever
// cell registry owns it, so `ExperimentOptions::extra_strategies`,
// `rtmbench` scenarios and `placement_explorer cache` all accept cache
// policy names interchangeably.
//
// The built-ins wrap the SAME engine recipe as the online policy
// "online-fixed-dma-sr"; a capacity-100% cache cell is therefore
// bit-identical to that online cell (the hybrid mode's oracle anchor in
// bench/harness/scenarios/fig_cache.cpp).
#pragma once

#include <string>
#include <utility>

#include "cache/engine.h"
#include "util/registry.h"

namespace rtmp::cache {

/// Self-description of a registered cache policy.
struct CachePolicyInfo {
  /// Registry key: lowercase, unique ("cache-lru-c50", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Eviction-policy registry name the policy runs (cache/eviction.h).
  std::string eviction;
  /// Resident-set fraction of the working set (CacheConfig ratio).
  double capacity_ratio = 1.0;
};

/// A named CacheConfig recipe under a fixed description. Immutable, so
/// the experiment engine may share one instance across threads.
class CachePolicy final {
 public:
  CachePolicy(CachePolicyInfo info, CacheConfig config)
      : info_(std::move(info)), config_(std::move(config)) {}

  [[nodiscard]] const CachePolicyInfo& Describe() const noexcept {
    return info_;
  }

  /// The cache configuration this policy stands for. Callers stamp the
  /// run-specific fields afterwards (capacity_slots via ResolveCapacity,
  /// strategy effort/seeds from the experiment).
  [[nodiscard]] CacheConfig MakeConfig() const { return config_; }

 private:
  CachePolicyInfo info_;
  CacheConfig config_;
};

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
