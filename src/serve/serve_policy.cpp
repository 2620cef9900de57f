#include "serve/serve_policy.h"

#include <memory>
#include <stdexcept>
#include <utility>

#include "online/policy.h"

namespace rtmp::serve {

namespace {

/// Factory body shared by the built-ins: resolve the wrapped online
/// policy lazily (at first Find), so registration order between the
/// registries does not matter.
ServePolicyRegistry::Factory BuiltinFactory(ServePolicyInfo info,
                                            MigrationBudgetConfig budget) {
  return [info = std::move(info), budget] {
    const auto online =
        online::OnlinePolicyRegistry::Global().Find(info.online_policy);
    if (!online) {
      throw std::invalid_argument(
          "ServePolicyRegistry: serve policy '" + info.name +
          "' wraps unregistered online policy '" + info.online_policy + "'");
    }
    ServeConfig config;
    config.num_shards = info.shards;
    config.budget = budget;
    config.engine = online->MakeConfig();
    return std::make_shared<const ServePolicy>(info, config);
  };
}

void RegisterFamily(ServePolicyRegistry& registry, const std::string& reseed) {
  // Budget tiers in migration shifts per served window (0 = unlimited);
  // burst allowance stays at the MigrationBudgetConfig default.
  constexpr std::uint64_t kTight = 256;
  constexpr std::uint64_t kLoose = 16384;

  for (const unsigned shards : {1u, 2u, 4u}) {
    const std::string n = std::to_string(shards) + "s";
    registry.Register(
        "serve-" + n + "-static-" + reseed,
        BuiltinFactory(
            ServePolicyInfo{
                "serve-" + n + "-static-" + reseed,
                n + " shard(s) of the online-static-" + reseed +
                    " oracle engine, unlimited migration budget",
                "online-static-" + reseed, shards, "unlimited"},
            MigrationBudgetConfig{}));
    registry.Register(
        "serve-" + n + "-ewma-" + reseed,
        BuiltinFactory(
            ServePolicyInfo{
                "serve-" + n + "-ewma-" + reseed,
                n + " shard(s) of online-ewma-" + reseed +
                    ", unlimited migration budget",
                "online-ewma-" + reseed, shards, "unlimited"},
            MigrationBudgetConfig{}));
    registry.Register(
        "serve-" + n + "-tight-ewma-" + reseed,
        BuiltinFactory(
            ServePolicyInfo{
                "serve-" + n + "-tight-ewma-" + reseed,
                n + " shard(s) of online-ewma-" + reseed +
                    ", tight global budget (" + std::to_string(kTight) +
                    " migration shifts/window)",
                "online-ewma-" + reseed, shards, "tight"},
            MigrationBudgetConfig{kTight, 4}));
    registry.Register(
        "serve-" + n + "-loose-ewma-" + reseed,
        BuiltinFactory(
            ServePolicyInfo{
                "serve-" + n + "-loose-ewma-" + reseed,
                n + " shard(s) of online-ewma-" + reseed +
                    ", loose global budget (" + std::to_string(kLoose) +
                    " migration shifts/window)",
                "online-ewma-" + reseed, shards, "loose"},
            MigrationBudgetConfig{kLoose, 4}));
  }
}

}  // namespace

void RegisterBuiltinServePolicies(ServePolicyRegistry& registry) {
  RegisterFamily(registry, "dma-sr");
}

}  // namespace rtmp::serve
