#include "cache/cache_policy.h"

#include <memory>
#include <string>

namespace rtmp::cache {

namespace {

/// The engine recipe every built-in wraps: online-fixed-dma-sr (256-
/// access windows, re-seed weighed at every boundary via dma-sr). Kept
/// in lock-step with RegisterBuiltinOnlinePolicies so the c100 cells
/// stay bit-identical to that online cell.
online::OnlineConfig BuiltinEngineRecipe() {
  online::OnlineConfig config;
  config.reseed_strategy = "dma-sr";
  config.window_accesses = 256;
  config.detector.kind = online::DetectorKind::kFixedWindow;
  config.detector.period = 1;
  return config;
}

void RegisterCapacityFamily(CachePolicyRegistry& registry,
                            const std::string& eviction, int percent) {
  CacheConfig config;
  config.eviction = eviction;
  config.capacity_ratio = static_cast<double>(percent) / 100.0;
  config.engine = BuiltinEngineRecipe();
  const std::string name = eviction + "-c" + std::to_string(percent);
  const CachePolicyInfo info{
      name,
      eviction + " eviction over a resident set of " +
          std::to_string(percent) +
          "% of the working set, hits served by the "
          "online-fixed-dma-sr engine recipe",
      eviction, config.capacity_ratio};
  registry.Register(name, [info, config] {
    return std::make_shared<const CachePolicy>(info, config);
  });
}

}  // namespace

void RegisterBuiltinCachePolicies(CachePolicyRegistry& registry) {
  for (const char* eviction :
       {"cache-lru", "cache-lfu", "cache-sample", "cache-shift-aware"}) {
    for (const int percent : {25, 50, 100}) {
      RegisterCapacityFamily(registry, eviction, percent);
    }
  }
}

}  // namespace rtmp::cache
