// Serve-policy registry: named multi-tenant service recipes, the third
// member of the experiment cell-name space after placement strategies
// (core/strategy_registry.h) and online policies (online/policy.h).
//
// A serve policy is a ServeConfig recipe: how many shards the device is
// partitioned into, which online policy drives each shard's engine, and
// how tight the global migration budget is. sim::RunCell dispatches a
// cell name to whichever cell registry owns it, so serve policies enter
// RunMatrix grids, rtmbench scenarios and placement_explorer exactly like
// any other cell name.
#pragma once

#include <string>
#include <utility>

#include "serve/service.h"
#include "util/registry.h"

namespace rtmp::serve {

/// Self-description of a registered serve policy.
struct ServePolicyInfo {
  /// Registry key: lowercase, unique ("serve-4s-ewma-dma-sr", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Registry name of the online policy driving each shard's engine.
  std::string online_policy;
  /// Device shards (equal DBC partitions).
  unsigned shards = 1;
  /// Migration-budget label: "unlimited", "tight" or "loose".
  std::string budget = "unlimited";
};

/// A named ServeConfig recipe under a fixed description. Immutable, so
/// the experiment engine may share one instance across threads.
class ServePolicy final {
 public:
  ServePolicy(ServePolicyInfo info, ServeConfig config)
      : info_(std::move(info)), config_(std::move(config)) {}

  [[nodiscard]] const ServePolicyInfo& Describe() const noexcept {
    return info_;
  }

  /// The service configuration this policy stands for. Callers stamp the
  /// run-specific engine fields afterwards (effort and seeds come from
  /// the experiment, not the policy).
  [[nodiscard]] ServeConfig MakeConfig() const { return config_; }

 private:
  ServePolicyInfo info_;
  ServeConfig config_;
};

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
