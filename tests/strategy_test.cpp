#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "trace/access_sequence.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

/// Runs the registered strategy `name`, placement only.
Placement RunNamed(std::string_view name, const AccessSequence& seq,
                   std::uint32_t dbcs, const StrategyOptions& options) {
  return StrategyRegistry::Global()
      .Find(name)
      ->Run({&seq, dbcs, kUnboundedCapacity, options,
             /*compute_cost=*/false})
      .placement;
}

TEST(Strategy, SpecAndToStringRoundTripForEveryRegisteredName) {
  // The registry is the single source of truth for accepted names, so
  // this is exhaustive by construction: every enum-backed registered name
  // must round-trip. Registered strategies without an enum spec
  // (external StrategyRegistrar users) are skipped.
  const auto& registry = StrategyRegistry::Global();
  std::size_t enum_backed = 0;
  for (const auto& name : registry.Names()) {
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value()) << name;
    if (!info->spec.has_value()) continue;
    ++enum_backed;
    EXPECT_EQ(ToString(*info->spec), name);
  }
  ASSERT_GE(enum_backed, 17u);  // {afd,dma,dma2} x 5 intras + ga + rw
}

TEST(Strategy, RegisteredNamesCoverTheDocumentedGrid) {
  const auto names = StrategyRegistry::Global().Names();
  const auto has = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // Names like "afd-sr" and "dma2-ofu" used to parse without ever being
  // listed anywhere; now the registry is the single source of truth.
  for (const char* inter : {"afd", "dma", "dma2"}) {
    for (const char* intra : {"none", "ofu", "chen", "sr", "ge"}) {
      EXPECT_TRUE(has(std::string(inter) + "-" + intra))
          << inter << "-" << intra;
    }
  }
  EXPECT_TRUE(has("ga"));
  EXPECT_TRUE(has("rw"));
}

TEST(Strategy, LookupIsCaseInsensitive) {
  const auto info = StrategyRegistry::Global().Describe("DMA-SR");
  ASSERT_TRUE(info.has_value());
  ASSERT_TRUE(info->spec.has_value());
  EXPECT_EQ(info->spec->inter, InterPolicy::kDma);
  EXPECT_EQ(info->spec->intra, IntraHeuristic::kShiftsReduce);
}

TEST(Strategy, LookupRejectsUnknownNames) {
  const auto& registry = StrategyRegistry::Global();
  for (const char* name : {"", "dma", "dma-", "xyz-ofu", "dma-xyz",
                           "afd-ofu-extra", " dma-sr", "ga2"}) {
    EXPECT_FALSE(registry.Describe(name).has_value()) << '"' << name << '"';
  }
}

TEST(Strategy, PaperStrategiesAreTheSixOfSectionIvA) {
  const auto specs = PaperStrategies();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(ToString(specs[0]), "afd-ofu");
  EXPECT_EQ(ToString(specs[1]), "dma-ofu");
  EXPECT_EQ(ToString(specs[2]), "dma-chen");
  EXPECT_EQ(ToString(specs[3]), "dma-sr");
  EXPECT_EQ(ToString(specs[4]), "ga");
  EXPECT_EQ(ToString(specs[5]), "rw");
}

TEST(Strategy, PaperStrategiesProduceCompletePlacements) {
  const auto seq = AccessSequence::FromCompactString(
      "g" "ababab" "g" "cdcdcd" "g" "efef" "g");
  StrategyOptions options;
  ScaleSearchEffort(options, 0.02);
  for (const auto& spec : PaperStrategies()) {
    const Placement p = RunNamed(ToString(spec), seq, 4, options);
    EXPECT_TRUE(p.IsComplete()) << ToString(spec);
    p.CheckInvariants();
  }
}

TEST(Strategy, ScaleSearchEffortScalesAndFloors) {
  StrategyOptions options;
  ScaleSearchEffort(options, 0.1);
  EXPECT_EQ(options.ga.generations, 20u);
  EXPECT_EQ(options.ga.mu, 10u);
  EXPECT_EQ(options.rw.iterations, 6000u);
  StrategyOptions tiny;
  ScaleSearchEffort(tiny, 1e-6);
  EXPECT_GE(tiny.ga.mu, 4u);
  EXPECT_GE(tiny.ga.generations, 1u);
  EXPECT_GE(tiny.rw.iterations, 1u);
  StrategyOptions bad;
  EXPECT_THROW(ScaleSearchEffort(bad, 0.0), std::invalid_argument);
}

TEST(Strategy, GaRespectsInjectedCostOptions) {
  // With kZero alignment the absolute costs grow; the GA must optimize
  // under the same model it reports.
  const auto seq = AccessSequence::FromCompactString("abcdabcdabcd");
  StrategyOptions options;
  ScaleSearchEffort(options, 0.02);
  options.cost.initial_alignment = rtm::InitialAlignment::kZero;
  const Placement p = RunNamed("ga", seq, 2, options);
  EXPECT_TRUE(p.IsComplete());
}

TEST(Strategy, DmaMultiIsAvailableViaRegistry) {
  const auto seq = AccessSequence::FromCompactString("aabb" "xyxy" "ccdd");
  const Placement p = RunNamed("dma2-ofu", seq, 4, {});
  EXPECT_TRUE(p.IsComplete());
  p.CheckInvariants();
}

}  // namespace
}  // namespace rtmp::core
