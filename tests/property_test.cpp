// Cross-cutting property suites: every strategy, over randomized workloads
// and the full configuration grid, must uphold the library's core
// invariants (complete placements, cost-model/simulator agreement,
// determinism). These parameterized sweeps are the repository's main guard
// against silent regressions in any placement policy.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/cost_model.h"
#include "core/inter_dma.h"
#include "core/strategy.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/liveliness.h"
#include "trace/variable_stats.h"
#include "util/rng.h"

namespace rtmp {
namespace {

using core::IntraHeuristic;
using core::InterPolicy;
using core::Placement;
using core::StrategySpec;

/// (strategy name, dbc count, workload family index)
using GridParam = std::tuple<std::string, std::uint32_t, int>;

trace::AccessSequence MakeWorkload(int family, std::uint64_t seed) {
  util::Rng rng(seed);
  switch (family) {
    case 0: {
      trace::UniformParams p;
      p.num_vars = 20;
      p.length = 300;
      return GenerateUniform(p, rng);
    }
    case 1: {
      trace::ZipfParams p;
      p.num_vars = 30;
      p.length = 400;
      p.exponent = 1.1;
      return GenerateZipf(p, rng);
    }
    case 2: {
      trace::PhasedParams p;
      p.num_phases = 5;
      p.vars_per_phase = 6;
      p.accesses_per_phase = 60;
      p.num_globals = 2;
      return GeneratePhased(p, rng);
    }
    case 3: {
      trace::MarkovParams p;
      p.num_vars = 25;
      p.length = 350;
      return GenerateMarkov(p, rng);
    }
    default: {
      trace::LoopNestParams p;
      p.num_arrays = 3;
      p.array_len = 8;
      p.iterations = 12;
      return GenerateLoopNest(p, rng);
    }
  }
}

class StrategyGrid : public ::testing::TestWithParam<GridParam> {
 protected:
  core::StrategyOptions FastOptions() const {
    core::StrategyOptions options;
    core::ScaleSearchEffort(options, 0.01);
    return options;
  }
};

TEST_P(StrategyGrid, ProducesValidCompletePlacement) {
  const auto& [name, dbcs, family] = GetParam();
  const auto spec = *core::ParseStrategy(name);
  const auto seq = MakeWorkload(family, 1000 + family);
  const Placement p = core::RunStrategy(spec, seq, dbcs,
                                        core::kUnboundedCapacity,
                                        FastOptions());
  EXPECT_TRUE(p.IsComplete());
  EXPECT_EQ(p.num_dbcs(), dbcs);
  p.CheckInvariants();
}

TEST_P(StrategyGrid, RespectsTightCapacity) {
  const auto& [name, dbcs, family] = GetParam();
  const auto spec = *core::ParseStrategy(name);
  const auto seq = MakeWorkload(family, 2000 + family);
  const auto capacity = static_cast<std::uint32_t>(
      (seq.num_variables() + dbcs - 1) / dbcs + 1);
  const Placement p =
      core::RunStrategy(spec, seq, dbcs, capacity, FastOptions());
  EXPECT_TRUE(p.IsComplete());
  for (std::uint32_t d = 0; d < dbcs; ++d) {
    EXPECT_LE(p.dbc(d).size(), capacity);
  }
}

TEST_P(StrategyGrid, CostModelAgreesWithSimulator) {
  const auto& [name, dbcs, family] = GetParam();
  const auto spec = *core::ParseStrategy(name);
  const auto seq = MakeWorkload(family, 3000 + family);
  const Placement p = core::RunStrategy(spec, seq, dbcs,
                                        core::kUnboundedCapacity,
                                        FastOptions());
  rtm::RtmConfig config = rtm::RtmConfig::Paper(4);
  config.dbcs = dbcs;
  // Deep enough for the unbounded placement.
  config.domains_per_dbc =
      static_cast<unsigned>(seq.num_variables()) + 1;
  core::CostOptions options;
  options.initial_alignment = config.initial_alignment;
  EXPECT_EQ(sim::Simulate(seq, p, config).stats.shifts,
            core::ShiftCost(seq, p, options));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllShapes, StrategyGrid,
    ::testing::Combine(::testing::Values("afd-ofu", "afd-chen", "afd-sr",
                                         "dma-ofu", "dma-chen", "dma-sr",
                                         "dma2-sr", "ga", "rw"),
                       ::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(0, 1, 2, 3, 4)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_q" + std::to_string(std::get<1>(info.param)) +
             "_w" + std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------------------------
// Ordering properties among the paper's strategies.

class WorkloadFamilies : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadFamilies, SeededGaDominatesEveryHeuristic) {
  const auto seq = MakeWorkload(GetParam(), 4000 + GetParam());
  core::StrategyOptions options;
  core::ScaleSearchEffort(options, 0.02);
  const std::uint32_t dbcs = 4;
  core::GaOptions ga = options.ga;
  const auto ga_result = core::RunGa(seq, dbcs, core::kUnboundedCapacity, ga);
  for (const char* name : {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr"}) {
    const Placement p =
        core::RunStrategy(*core::ParseStrategy(name), seq, dbcs,
                          core::kUnboundedCapacity, options);
    EXPECT_LE(ga_result.best_cost, core::ShiftCost(seq, p)) << name;
  }
}

TEST_P(WorkloadFamilies, IntraHeuristicsImproveDmaLeftovers) {
  const auto seq = MakeWorkload(GetParam(), 5000 + GetParam());
  const std::uint32_t dbcs = 4;
  const auto ofu = core::DistributeDma(seq, dbcs, core::kUnboundedCapacity,
                                       {IntraHeuristic::kOfu});
  const auto sr = core::DistributeDma(seq, dbcs, core::kUnboundedCapacity,
                                      {IntraHeuristic::kShiftsReduce});
  // SR applies local search on top of a smarter construction: it must not
  // lose to OFU by more than noise (assert a hard >= on total order here:
  // both share the same disjoint DBCs, so only leftovers differ).
  EXPECT_LE(core::ShiftCost(seq, sr.placement),
            core::ShiftCost(seq, ofu.placement) + 2);
}

TEST_P(WorkloadFamilies, DisjointSetSelectionIsAlwaysPairwiseDisjoint) {
  const auto seq = MakeWorkload(GetParam(), 6000 + GetParam());
  const auto stats = trace::ComputeVariableStats(seq);
  const auto disjoint = core::SelectDisjointVariables(stats);
  EXPECT_TRUE(trace::AllPairwiseDisjoint(stats, disjoint));
  // And the selection respects ascending first-occurrence order.
  for (std::size_t i = 1; i < disjoint.size(); ++i) {
    EXPECT_LT(stats[disjoint[i - 1]].first, stats[disjoint[i]].first);
  }
}

TEST_P(WorkloadFamilies, MoreDbcsNeverIncreaseDmaShifts) {
  // Spreading the same variables over more DBCs (same intra policy) cannot
  // hurt the total walk cost of DMA's distribution on these workloads.
  const auto seq = MakeWorkload(GetParam(), 7000 + GetParam());
  std::uint64_t last = ~0ULL;
  for (const std::uint32_t q : {2u, 4u, 8u, 16u}) {
    const auto result =
        core::DistributeDma(seq, q, core::kUnboundedCapacity,
                            {IntraHeuristic::kOfu});
    const auto cost = core::ShiftCost(seq, result.placement);
    EXPECT_LE(cost, last) << q;
    last = cost;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, WorkloadFamilies,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace rtmp
