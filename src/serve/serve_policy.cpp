#include "serve/serve_policy.h"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "online/policy.h"

namespace rtmp::serve {

namespace {

/// Registers a built-in: `shards` shards of the online policy `engine`
/// under `budget`. The online policy is resolved lazily (at first Find),
/// so registration order between the registries does not matter.
void Add(ServePolicyRegistry& registry, const util::RecipeInfo& info,
         const std::string& engine, unsigned shards,
         const MigrationBudgetConfig& budget) {
  registry.Register(info.name, [info, engine, shards, budget] {
    const auto online = online::OnlinePolicyRegistry::Global().Find(engine);
    if (!online) {
      throw std::invalid_argument("ServePolicyRegistry: serve policy '" +
                                  info.name +
                                  "' wraps unregistered online policy '" +
                                  engine + "'");
    }
    ServeConfig config;
    config.num_shards = shards;
    config.budget = budget;
    config.engine = online->MakeConfig();
    return std::make_shared<const ServePolicy>(info, config);
  });
}

void RegisterFamily(ServePolicyRegistry& registry, const std::string& reseed) {
  // Budget tiers in migration shifts per served window (0 = unlimited);
  // the burst allowance is kBurstWindows windows.
  constexpr std::uint64_t kTight = 256;
  constexpr std::uint64_t kLoose = 16384;

  for (const unsigned shards : {1u, 2u, 4u}) {
    const std::string n = std::to_string(shards) + "s";
    Add(registry,
        {"serve-" + n + "-static-" + reseed,
         n + " shard(s) of the online-static-" + reseed +
             " oracle engine, unlimited migration budget"},
        "online-static-" + reseed, shards, MigrationBudgetConfig{});
    Add(registry,
        {"serve-" + n + "-ewma-" + reseed,
         n + " shard(s) of online-ewma-" + reseed +
             ", unlimited migration budget"},
        "online-ewma-" + reseed, shards, MigrationBudgetConfig{});
    Add(registry,
        {"serve-" + n + "-tight-ewma-" + reseed,
         n + " shard(s) of online-ewma-" + reseed +
             ", tight global budget (" + std::to_string(kTight) +
             " migration shifts/window)"},
        "online-ewma-" + reseed, shards, MigrationBudgetConfig{kTight});
    Add(registry,
        {"serve-" + n + "-loose-ewma-" + reseed,
         n + " shard(s) of online-ewma-" + reseed +
             ", loose global budget (" + std::to_string(kLoose) +
             " migration shifts/window)"},
        "online-ewma-" + reseed, shards, MigrationBudgetConfig{kLoose});
  }
}

}  // namespace

void RegisterBuiltinServePolicies(ServePolicyRegistry& registry) {
  RegisterFamily(registry, "dma-sr");
}

}  // namespace rtmp::serve
