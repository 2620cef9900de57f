// Ground-truth anchor: for tiny instances the optimal placement can be
// enumerated exhaustively (every assignment of variables to DBCs, every
// order inside each DBC). Every heuristic must stay above the optimum, the
// GA must reach it given a generous budget on these sizes, and the paper's
// l-1 bound for disjoint chains must be tight where predicted.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_dma.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "trace/access_sequence.h"

namespace rtmp {
namespace {

using core::Placement;
using trace::AccessSequence;
using trace::VariableId;

/// Runs the registered strategy `name`, placement only.
Placement RunNamed(std::string_view name, const AccessSequence& seq,
                   std::uint32_t dbcs, std::uint32_t capacity,
                   const core::StrategyOptions& options) {
  return core::StrategyRegistry::Global()
      .Find(name)
      ->Run({&seq, dbcs, capacity, options, /*compute_cost=*/false})
      .placement;
}

/// Exhaustive optimum over all complete placements of `seq` into q DBCs
/// (unbounded capacity). Cost model: paper convention.
std::uint64_t ExhaustiveOptimum(const AccessSequence& seq, std::uint32_t q) {
  const std::size_t n = seq.num_variables();
  std::vector<std::uint32_t> assignment(n, 0);
  std::uint64_t best = ~0ULL;

  // Enumerate q^n DBC assignments; for each, enumerate per-DBC orders.
  // Sizes are tiny (n <= 6, q <= 3), so this stays comfortably small.
  const auto evaluate_orders = [&](const std::vector<std::uint32_t>& assign) {
    std::vector<std::vector<VariableId>> lists(q);
    for (VariableId v = 0; v < n; ++v) lists[assign[v]].push_back(v);
    // Enumerate the cartesian product of per-DBC permutations.
    std::vector<std::vector<VariableId>> current = lists;
    for (auto& list : current) std::sort(list.begin(), list.end());
    std::uint64_t local_best = ~0ULL;
    // Recursive permutation product.
    const std::function<void(std::size_t)> recurse = [&](std::size_t d) {
      if (d == q) {
        const Placement p =
            Placement::FromLists(current, n, core::kUnboundedCapacity);
        local_best = std::min(local_best, core::ShiftCost(seq, p));
        return;
      }
      if (current[d].empty()) {
        recurse(d + 1);
        return;
      }
      std::sort(current[d].begin(), current[d].end());
      do {
        recurse(d + 1);
      } while (std::next_permutation(current[d].begin(), current[d].end()));
    };
    recurse(0);
    return local_best;
  };

  for (;;) {
    best = std::min(best, evaluate_orders(assignment));
    // Next assignment in base q.
    std::size_t i = 0;
    while (i < n && ++assignment[i] == q) {
      assignment[i] = 0;
      ++i;
    }
    if (i == n) break;
  }
  return best;
}

struct TinyCase {
  const char* trace;
  std::uint32_t dbcs;
};

class TinyInstances : public ::testing::TestWithParam<TinyCase> {};

TEST_P(TinyInstances, HeuristicsNeverBeatTheOptimum) {
  const auto& param = GetParam();
  const auto seq = AccessSequence::FromCompactString(param.trace);
  const std::uint64_t optimum = ExhaustiveOptimum(seq, param.dbcs);
  core::StrategyOptions options;
  core::ScaleSearchEffort(options, 0.05);
  for (const char* name :
       {"afd-ofu", "afd-chen", "afd-sr", "afd-ge", "dma-ofu", "dma-chen",
        "dma-sr", "dma-ge", "dma2-sr", "rw"}) {
    const Placement p =
        RunNamed(name, seq, param.dbcs, core::kUnboundedCapacity, options);
    EXPECT_GE(core::ShiftCost(seq, p), optimum)
        << name << " on " << param.trace;
  }
}

TEST_P(TinyInstances, GaReachesTheOptimumWithBudget) {
  const auto& param = GetParam();
  const auto seq = AccessSequence::FromCompactString(param.trace);
  const std::uint64_t optimum = ExhaustiveOptimum(seq, param.dbcs);
  core::GaOptions ga;
  ga.mu = 24;
  ga.lambda = 24;
  ga.generations = 60;
  ga.seed = 0x717;
  const auto result = core::RunGa(seq, param.dbcs,
                                  core::kUnboundedCapacity, ga);
  EXPECT_EQ(result.best_cost, optimum) << param.trace;
}

INSTANTIATE_TEST_SUITE_P(
    SmallTraces, TinyInstances,
    ::testing::Values(TinyCase{"ababab", 2}, TinyCase{"abcabc", 2},
                      TinyCase{"aabbcc", 2}, TinyCase{"abcdab", 2},
                      TinyCase{"abcba" "cab", 2}, TinyCase{"abcabc", 3},
                      TinyCase{"aabbc" "cdd", 3}, TinyCase{"abcde", 2},
                      TinyCase{"aaabbb", 3}, TinyCase{"abab" "cc", 3}),
    [](const ::testing::TestParamInfo<TinyCase>& info) {
      std::string name = info.param.trace;
      name += "_q" + std::to_string(info.param.dbcs);
      return name;
    });

TEST(Exhaustive, DisjointChainBoundIsTight) {
  // aabbcc in ONE DBC: the optimal single-DBC layout is the access-order
  // chain costing exactly l - 1 = 2.
  const auto seq = AccessSequence::FromCompactString("aabbcc");
  EXPECT_EQ(ExhaustiveOptimum(seq, 1), 2u);
}

TEST(Exhaustive, TwoDbcsSplitIntoDisjointChains) {
  // a/b and c/d form disjoint chains (a:[0,2], b:[4,6]; c:[1,3], d:[5,7]).
  // Splitting {a,b} | {c,d} leaves one l-1 = 1 hop per DBC: optimum 2.
  const auto seq = AccessSequence::FromCompactString("acacbdbd");
  EXPECT_EQ(ExhaustiveOptimum(seq, 2), 2u);
  // Sanity: with 4 DBCs everything separates completely.
  EXPECT_EQ(ExhaustiveOptimum(seq, 4), 0u);
}

TEST(Exhaustive, PaperExampleOptimumIsBelowHandLayout) {
  // The Fig. 3 trace restricted to its first 12 accesses (exhaustive on
  // the full 9-variable instance would be excessive for a unit test).
  const auto seq = AccessSequence::FromCompactString("ababcacaddai");
  const std::uint64_t optimum = ExhaustiveOptimum(seq, 2);
  // DMA on the same prefix must be within the optimum's reach.
  const auto dma = core::DistributeDma(seq, 2, core::kUnboundedCapacity,
                                       {core::IntraHeuristic::kShiftsReduce});
  EXPECT_GE(core::ShiftCost(seq, dma.placement), optimum);
  EXPECT_LE(optimum, 4u);
}

}  // namespace
}  // namespace rtmp
