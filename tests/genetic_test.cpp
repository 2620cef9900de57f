#include <gtest/gtest.h>

#include <algorithm>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_dma.h"
#include "core/placement.h"
#include "trace/access_sequence.h"
#include "util/rng.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

AccessSequence MediumTrace() {
  return AccessSequence::FromCompactString(
      "g" "ababab" "g" "cdcdcd" "g" "efefef" "g" "hihihi" "g");
}

GaOptions SmallGa(std::uint64_t seed = 7) {
  GaOptions options;
  options.mu = 12;
  options.lambda = 12;
  options.generations = 15;
  options.seed = seed;
  return options;
}

TEST(AppearanceOrderFn, OrdersByFirstUseThenId) {
  AccessSequence seq;
  seq.AddVariable("late");   // 0
  seq.AddVariable("never");  // 1
  seq.AddVariable("early");  // 2
  seq.Append(2);
  seq.Append(0);
  const auto order = AppearanceOrder(seq);
  EXPECT_EQ(order, (std::vector<trace::VariableId>{2, 0, 1}));
}

TEST(RandomPlacementFn, IsCompleteAndValid) {
  util::Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Placement p = RandomPlacement(17, 4, 5, rng);
    EXPECT_TRUE(p.IsComplete());
    p.CheckInvariants();
  }
}

TEST(RandomPlacementFn, RespectsTightCapacity) {
  util::Rng rng(5);
  const Placement p = RandomPlacement(8, 4, 2, rng);
  for (std::uint32_t d = 0; d < 4; ++d) EXPECT_EQ(p.dbc(d).size(), 2u);
}

TEST(RandomPlacementFn, ThrowsWhenImpossible) {
  util::Rng rng(5);
  EXPECT_THROW(RandomPlacement(9, 4, 2, rng), std::invalid_argument);
}

TEST(RandomPlacementFn, RejectsBadShapesBeforeDrawing) {
  // Every shape a Placement rejects is rejected before the first draw (a
  // draw over zero DBCs would divide by zero), with an exception.
  util::Rng rng(5);
  EXPECT_THROW(RandomPlacement(3, 0, kUnboundedCapacity, rng),
               std::invalid_argument);
  EXPECT_THROW(RandomPlacement(3, 0, 4, rng), std::invalid_argument);
  EXPECT_THROW(RandomPlacement(0, 0, kUnboundedCapacity, rng),
               std::invalid_argument);
  EXPECT_THROW(RandomPlacement(0, 0, 4, rng), std::invalid_argument);
  EXPECT_THROW(RandomPlacement(3, 2, 0, rng), std::invalid_argument);
  EXPECT_THROW(RandomPlacement(0, 2, 0, rng), std::invalid_argument);
  EXPECT_THROW(RandomPlacement(5, 2, 2, rng), std::invalid_argument);
}

TEST(RandomPlacementFn, NoVariablesGiveAnEmptyPlacement) {
  util::Rng rng(5);
  const Placement p = RandomPlacement(0, 3, 2, rng);
  EXPECT_EQ(p.num_variables(), 0u);
  EXPECT_EQ(p.num_dbcs(), 3u);
  EXPECT_TRUE(p.IsComplete());
  p.CheckInvariants();
}

TEST(RandomPlacementFn, BuildsTheDrawnSlots) {
  util::Rng a(21);
  util::Rng b(21);
  RandomDraw draw;
  DrawRandomSlots(40, 6, 7, a, draw);
  const Placement p = RandomPlacement(40, 6, 7, b);
  EXPECT_EQ(a(), b());  // same RNG consumption
  EXPECT_EQ(draw.Build(), p);
  for (trace::VariableId v = 0; v < 40; ++v) {
    EXPECT_EQ(draw.slots[v], p.SlotOf(v));
  }
  for (std::uint32_t d = 0; d < 6; ++d) {
    EXPECT_EQ(draw.fill[d], p.dbc(d).size());
  }
}

TEST(Crossover, SwapsAssignmentsInsideRange) {
  const auto seq = AccessSequence::FromCompactString("abcd");
  const auto order = AppearanceOrder(seq);
  Placement left = Placement::FromLists({{0, 1}, {2, 3}}, 4);
  Placement right = Placement::FromLists({{2, 3}, {0, 1}}, 4);
  // Swap the assignments of variables b(1) and c(2) (range [1, 2]).
  CrossoverSwapRange(left, right, order, 1, 2);
  left.CheckInvariants();
  right.CheckInvariants();
  // left had b in DBC0, right had b in DBC1 -> left's b moves to DBC1.
  EXPECT_EQ(left.SlotOf(1).dbc, 1u);
  EXPECT_EQ(left.SlotOf(2).dbc, 0u);
  EXPECT_EQ(right.SlotOf(1).dbc, 0u);
  EXPECT_EQ(right.SlotOf(2).dbc, 1u);
  // Variables outside the range stay put.
  EXPECT_EQ(left.SlotOf(0).dbc, 0u);
  EXPECT_EQ(left.SlotOf(3).dbc, 1u);
}

TEST(Crossover, AgreementIsFixpoint) {
  const auto seq = AccessSequence::FromCompactString("abcd");
  const auto order = AppearanceOrder(seq);
  Placement left = Placement::FromLists({{0, 1}, {2, 3}}, 4);
  Placement right = left;
  CrossoverSwapRange(left, right, order, 0, 3);
  EXPECT_EQ(left, Placement::FromLists({{0, 1}, {2, 3}}, 4));
  EXPECT_EQ(right, left);
}

TEST(Crossover, RepairsCapacityOverflow) {
  const auto seq = AccessSequence::FromCompactString("abcdef");
  const auto order = AppearanceOrder(seq);
  // Capacity 3; crossover pushes several variables toward DBC0 in `left`.
  Placement left = Placement::FromLists({{0, 1, 2}, {3, 4, 5}}, 6, 3);
  Placement right = Placement::FromLists({{3, 4, 0}, {1, 2, 5}}, 6, 3);
  CrossoverSwapRange(left, right, order, 0, 5);
  left.CheckInvariants();
  right.CheckInvariants();
  EXPECT_TRUE(left.IsComplete());
  EXPECT_TRUE(right.IsComplete());
}

TEST(Crossover, RejectsBadRanges) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const auto order = AppearanceOrder(seq);
  Placement a = Placement::FromLists({{0, 1}}, 2);
  Placement b = a;
  EXPECT_THROW(CrossoverSwapRange(a, b, order, 1, 0), std::out_of_range);
  EXPECT_THROW(CrossoverSwapRange(a, b, order, 0, 2), std::out_of_range);
}

TEST(Mutation, PreservesValidity) {
  const auto seq = MediumTrace();
  GaOptions options = SmallGa();
  util::Rng rng(11);
  Placement p = RandomPlacement(seq.num_variables(), 4, 4, rng);
  for (int i = 0; i < 300; ++i) {
    Mutate(p, options, rng);
    p.CheckInvariants();
    EXPECT_TRUE(p.IsComplete());
  }
}

TEST(Mutation, MoveOnlyChangesOneVariable) {
  GaOptions options;
  options.move_weight = 1.0;
  options.transpose_weight = 0.0;
  options.permute_weight = 0.0;
  util::Rng rng(13);
  Placement p = Placement::FromLists({{0, 1}, {2, 3}}, 4);
  const Placement before = p;
  Mutate(p, options, rng);
  // Count variables whose DBC changed: exactly one (or zero if skipped).
  int moved = 0;
  for (trace::VariableId v = 0; v < 4; ++v) {
    if (p.SlotOf(v).dbc != before.SlotOf(v).dbc) ++moved;
  }
  EXPECT_LE(moved, 1);
}

TEST(Mutation, PermutePreservesDbcMembership) {
  GaOptions options;
  options.move_weight = 0.0;
  options.transpose_weight = 0.0;
  options.permute_weight = 1.0;
  util::Rng rng(17);
  Placement p = Placement::FromLists({{0, 1, 2}, {3, 4}}, 5);
  Mutate(p, options, rng);
  for (trace::VariableId v = 0; v < 3; ++v) EXPECT_EQ(p.SlotOf(v).dbc, 0u);
  for (trace::VariableId v = 3; v < 5; ++v) EXPECT_EQ(p.SlotOf(v).dbc, 1u);
}

TEST(RunGaFn, HistoryIsMonotoneNonIncreasing) {
  const auto seq = MediumTrace();
  const GaResult result = RunGa(seq, 4, kUnboundedCapacity, SmallGa());
  ASSERT_FALSE(result.history.empty());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
  EXPECT_EQ(result.history.size(), SmallGa().generations + 1);
}

TEST(RunGaFn, BestCostMatchesBestPlacement) {
  const auto seq = MediumTrace();
  const GaResult result = RunGa(seq, 2, kUnboundedCapacity, SmallGa());
  EXPECT_EQ(ShiftCost(seq, result.best), result.best_cost);
  result.best.CheckInvariants();
  EXPECT_TRUE(result.best.IsComplete());
}

TEST(RunGaFn, SeededGaNeverWorseThanDmaHeuristic) {
  const auto seq = MediumTrace();
  for (const std::uint32_t q : {2u, 4u}) {
    const auto dma = DistributeDma(seq, q, kUnboundedCapacity,
                                   {IntraHeuristic::kShiftsReduce});
    const GaResult ga = RunGa(seq, q, kUnboundedCapacity, SmallGa());
    EXPECT_LE(ga.best_cost, ShiftCost(seq, dma.placement)) << q;
  }
}

TEST(RunGaFn, DeterministicForFixedSeed) {
  const auto seq = MediumTrace();
  const GaResult a = RunGa(seq, 4, kUnboundedCapacity, SmallGa(99));
  const GaResult b = RunGa(seq, 4, kUnboundedCapacity, SmallGa(99));
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.best, b.best);
}

TEST(RunGaFn, DifferentSeedsExploreDifferently) {
  const auto seq = MediumTrace();
  GaOptions no_seeding = SmallGa(1);
  no_seeding.seed_with_heuristics = false;
  GaOptions other = no_seeding;
  other.seed = 2;
  const GaResult a = RunGa(seq, 4, kUnboundedCapacity, no_seeding);
  const GaResult b = RunGa(seq, 4, kUnboundedCapacity, other);
  // Same final answer is possible, identical full history is implausible.
  EXPECT_NE(a.history, b.history);
}

TEST(RunGaFn, ImprovesOverRandomInitialPopulation) {
  const auto seq = MediumTrace();
  GaOptions options = SmallGa(21);
  options.seed_with_heuristics = false;
  options.generations = 30;
  const GaResult result = RunGa(seq, 4, kUnboundedCapacity, options);
  EXPECT_LT(result.best_cost, result.history.front());
}

TEST(RunGaFn, CountsEvaluations) {
  const auto seq = MediumTrace();
  const GaOptions options = SmallGa();
  const GaResult result = RunGa(seq, 2, kUnboundedCapacity, options);
  // mu initial + lambda per generation.
  EXPECT_EQ(result.evaluations,
            options.mu + options.lambda * options.generations);
}

TEST(RunGaFn, RespectsCapacityThroughout) {
  const auto seq = MediumTrace();  // 9 variables
  GaOptions options = SmallGa();
  const GaResult result = RunGa(seq, 4, 3, options);
  result.best.CheckInvariants();
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_LE(result.best.dbc(d).size(), 3u);
  }
}

TEST(RunGaFn, RejectsBadOptions) {
  const auto seq = MediumTrace();
  GaOptions options = SmallGa();
  options.mu = 0;
  EXPECT_THROW(RunGa(seq, 2, kUnboundedCapacity, options),
               std::invalid_argument);
  EXPECT_THROW(RunGa(seq, 2, 1, SmallGa()), std::invalid_argument);
}

TEST(RunGaFn, RejectsBadShapes) {
  const auto seq = MediumTrace();  // 9 variables
  for (const bool seeded : {true, false}) {
    GaOptions options = SmallGa();
    options.seed_with_heuristics = seeded;
    EXPECT_THROW(RunGa(seq, 0, kUnboundedCapacity, options),
                 std::invalid_argument);
    EXPECT_THROW(RunGa(seq, 0, 16, options), std::invalid_argument);
    EXPECT_THROW(RunGa(seq, 2, 0, options), std::invalid_argument);
    EXPECT_THROW(RunGa(seq, 2, 4, options), std::invalid_argument);
  }
}

TEST(RunGaFn, HandlesEmptySequence) {
  const AccessSequence empty;
  for (const bool seeded : {true, false}) {
    GaOptions options = SmallGa();
    options.seed_with_heuristics = seeded;
    const GaResult result = RunGa(empty, 3, kUnboundedCapacity, options);
    EXPECT_EQ(result.best_cost, 0u);
    EXPECT_EQ(result.best.num_variables(), 0u);
    EXPECT_EQ(result.history.size(), options.generations + 1);
    EXPECT_THROW(RunGa(empty, 0, kUnboundedCapacity, options),
                 std::invalid_argument);
    EXPECT_THROW(RunGa(empty, 3, 0, options), std::invalid_argument);
  }
}

TEST(RunGaFn, PinnedResultsUnchangedByEvaluatorRefactor) {
  // Golden values captured from the first implementation (ShiftCost
  // replay per candidate, copy-based elitist selection). The GA must
  // reproduce them bit-exactly: same RNG stream, same costs, same elite.
  const auto seq = MediumTrace();
  const GaResult four = RunGa(seq, 4, kUnboundedCapacity, SmallGa());
  EXPECT_EQ(four.best_cost, 5u);
  EXPECT_EQ(four.evaluations, 192u);
  EXPECT_EQ(four.history.front(), 6u);
  const GaResult two = RunGa(seq, 2, kUnboundedCapacity, SmallGa());
  EXPECT_EQ(two.best_cost, 15u);
  const GaResult capped = RunGa(seq, 4, 3, SmallGa());
  EXPECT_EQ(capped.best_cost, 6u);
  CostOptions zero;
  zero.initial_alignment = rtm::InitialAlignment::kZero;
  EXPECT_EQ(RunGa(seq, 4, kUnboundedCapacity, SmallGa(), zero).best_cost, 5u);
}

TEST(RunGaFn, HandlesSingleVariableTrace) {
  const auto seq = AccessSequence::FromCompactString("aaa");
  const GaResult result = RunGa(seq, 2, kUnboundedCapacity, SmallGa());
  EXPECT_EQ(result.best_cost, 0u);
}

}  // namespace
}  // namespace rtmp::core
