#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/cost_model.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "trace/access_sequence.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

std::vector<VariableId> AllVars(const AccessSequence& seq) {
  std::vector<VariableId> vars(seq.num_variables());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    vars[i] = static_cast<VariableId>(i);
  }
  return vars;
}

std::uint64_t CostOf(const AccessSequence& seq,
                     const std::vector<VariableId>& order) {
  return ShiftCost(seq, Placement::FromLists({order}, seq.num_variables()));
}

bool IsPermutationOf(const std::vector<VariableId>& order,
                     const std::vector<VariableId>& vars) {
  auto a = order;
  auto b = vars;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

TEST(IntraHeuristics, NoneKeepsInputOrder) {
  const auto seq = AccessSequence::FromCompactString("cba");
  const std::vector<VariableId> vars{2, 0, 1};
  const auto order = OrderVariables(IntraHeuristic::kNone, seq.accesses(),
                                    vars, seq.num_variables());
  EXPECT_EQ(order, vars);
}

TEST(IntraHeuristics, OfuOrdersByFirstUse) {
  const auto seq = AccessSequence::FromCompactString("cabcab");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kOfu, seq.accesses(),
                                    vars, seq.num_variables());
  // First uses: c, a, b -> ids 0, 1, 2 (ids assigned by first appearance).
  EXPECT_EQ(order, (std::vector<VariableId>{0, 1, 2}));
}

TEST(IntraHeuristics, OfuOnRestrictedSubsequence) {
  const auto seq = AccessSequence::FromCompactString("xaxbxa");
  // Subset {a, b}: first uses a then b.
  const std::vector<VariableId> subset{
      *seq.FindVariable("a"), *seq.FindVariable("b")};
  const auto restricted = seq.Restrict(subset);
  const auto order = OrderVariables(IntraHeuristic::kOfu, restricted, subset,
                                    seq.num_variables());
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], *seq.FindVariable("a"));
  EXPECT_EQ(order[1], *seq.FindVariable("b"));
}

TEST(IntraHeuristics, ChenPlacesStronglyCoupledPairAdjacent) {
  // a-b consecutive 8 times, c touches a twice: b must sit next to a.
  const auto seq = AccessSequence::FromCompactString("abababab" "ca" "c");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                    vars, seq.num_variables());
  const auto pos_a = std::find(order.begin(), order.end(), 0u) - order.begin();
  const auto pos_b = std::find(order.begin(), order.end(), 1u) - order.begin();
  EXPECT_EQ(std::abs(pos_a - pos_b), 1);
}

TEST(IntraHeuristics, UnusedVariablesGoLastInIdOrder) {
  AccessSequence seq;
  seq.AddVariable("a");
  seq.AddVariable("ghost2");
  seq.AddVariable("b");
  seq.AddVariable("ghost1");
  seq.Append(0);
  seq.Append(2);
  seq.Append(0);
  const std::vector<VariableId> vars{0, 1, 2, 3};
  for (const auto h : {IntraHeuristic::kOfu, IntraHeuristic::kChen,
                       IntraHeuristic::kShiftsReduce}) {
    const auto order =
        OrderVariables(h, seq.accesses(), vars, seq.num_variables());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 1u) << ToString(h);  // ghost2 (lower id first)
    EXPECT_EQ(order[3], 3u) << ToString(h);  // ghost1
  }
}

class IntraOrderValidity
    : public ::testing::TestWithParam<IntraHeuristic> {};

TEST_P(IntraOrderValidity, ProducesPermutations) {
  const char* traces[] = {
      "a",
      "ab",
      "aaaa",
      "abcabcabc",
      "abcdefghij",
      "aabbaabbccdd",
      "zyxwvu" "uvwxyz" "zzz",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto vars = AllVars(seq);
    const auto order =
        OrderVariables(GetParam(), seq.accesses(), vars, seq.num_variables());
    EXPECT_TRUE(IsPermutationOf(order, vars)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, IntraOrderValidity,
                         ::testing::Values(IntraHeuristic::kNone,
                                           IntraHeuristic::kOfu,
                                           IntraHeuristic::kChen,
                                           IntraHeuristic::kShiftsReduce,
                                           IntraHeuristic::kGreedyEdge));

TEST(IntraHeuristics, GreedyEdgeKeepsHeavyPairsAdjacent) {
  // Two heavy pairs (a,b) and (c,d) with light cross edges: both pairs
  // must end up adjacent regardless of everything else.
  const auto seq = AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd" "ac" "bd");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kGreedyEdge,
                                    seq.accesses(), vars,
                                    seq.num_variables());
  auto pos = [&order](VariableId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_EQ(std::abs(pos(0) - pos(1)), 1);  // a next to b
  EXPECT_EQ(std::abs(pos(2) - pos(3)), 1);  // c next to d
}

TEST(IntraHeuristics, GreedyEdgeAvoidsCyclesAndDegreeOverflow) {
  // A clique-ish trace: the path cover must still be a permutation and
  // never crash on cycle-closing edges.
  const auto seq = AccessSequence::FromCompactString(
      "abcabcacbacbabc" "ddd");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kGreedyEdge,
                                    seq.accesses(), vars,
                                    seq.num_variables());
  EXPECT_TRUE(IsPermutationOf(order, vars));
}

TEST(IntraHeuristics, GreedyEdgeBeatsOfuOnPingPong) {
  const auto seq = AccessSequence::FromCompactString(
      "abcde" "aeaeaeaeaeaeaeae");
  const auto vars = AllVars(seq);
  const auto ofu = OrderVariables(IntraHeuristic::kOfu, seq.accesses(), vars,
                                  seq.num_variables());
  const auto ge = OrderVariables(IntraHeuristic::kGreedyEdge,
                                 seq.accesses(), vars, seq.num_variables());
  EXPECT_LT(CostOf(seq, ge), CostOf(seq, ofu));
}

TEST(IntraHeuristics, ChenBeatsPathologicalOfu) {
  // First-use order is adversarial: the trace then ping-pongs between
  // variables that OFU separates maximally.
  const auto seq = AccessSequence::FromCompactString(
      "abcde" "aeaeaeaeaeaeaeae");
  const auto vars = AllVars(seq);
  const auto ofu = OrderVariables(IntraHeuristic::kOfu, seq.accesses(), vars,
                                  seq.num_variables());
  const auto chen = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                   vars, seq.num_variables());
  EXPECT_LT(CostOf(seq, chen), CostOf(seq, ofu));
}

TEST(IntraHeuristics, ShiftsReduceNeverWorseThanChenOnSamples) {
  const char* traces[] = {
      "abcabcabc",
      "abcde" "aeaeaeae" "bdbdbd",
      "qwerty" "ytrewq" "qqqwww",
      "abacadaeafag",
      "mnopmnopxyzxyz",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto vars = AllVars(seq);
    const auto chen = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                     vars, seq.num_variables());
    const auto sr = OrderVariables(IntraHeuristic::kShiftsReduce,
                                   seq.accesses(), vars, seq.num_variables());
    EXPECT_LE(CostOf(seq, sr), CostOf(seq, chen)) << text;
  }
}

TEST(IntraHeuristics, ShiftsReduceFindsOptimalChainForLinearScan) {
  // Trace walks a..e linearly twice; the identity order is optimal (cost 4
  // per sweep after the first access + 4 to return).
  const auto seq = AccessSequence::FromCompactString("abcdeabcde");
  const auto vars = AllVars(seq);
  const auto sr = OrderVariables(IntraHeuristic::kShiftsReduce,
                                 seq.accesses(), vars, seq.num_variables());
  // Optimal arrangements place consecutive letters adjacently.
  EXPECT_LE(CostOf(seq, sr), 12u);
}

TEST(IntraHeuristics, ApplyIntraReordersPlacementInPlace) {
  const auto seq = AccessSequence::FromCompactString("abab" "cd");
  Placement p = Placement::FromLists({{3, 0, 2, 1}}, 4);
  const auto before = ShiftCost(seq, p);
  ApplyIntra(IntraHeuristic::kShiftsReduce, seq, p, 0);
  p.CheckInvariants();
  EXPECT_LE(ShiftCost(seq, p), before);
}

TEST(IntraHeuristics, ApplyIntraSkipsTinyDbcs) {
  const auto seq = AccessSequence::FromCompactString("ab");
  Placement p = Placement::FromLists({{0}, {1}}, 2);
  ApplyIntra(IntraHeuristic::kChen, seq, p, 0);  // no-op, must not throw
  p.CheckInvariants();
}

constexpr IntraHeuristic kAllHeuristics[] = {
    IntraHeuristic::kNone, IntraHeuristic::kOfu, IntraHeuristic::kChen,
    IntraHeuristic::kShiftsReduce, IntraHeuristic::kGreedyEdge};

TEST(IntraHeuristics, OrderVariablesRejectsAccessIdsOutsideTheSpace) {
  const std::vector<trace::Access> accesses{
      {0, trace::AccessType::kRead}, {9'999'999, trace::AccessType::kRead}};
  const std::vector<VariableId> vars{0, 1};
  for (const IntraHeuristic h : kAllHeuristics) {
    EXPECT_THROW((void)OrderVariables(h, accesses, vars, 2),
                 std::invalid_argument)
        << ToString(h);
  }
}

TEST(IntraHeuristics, OrderVariablesRejectsBadVariableLists) {
  const auto seq = AccessSequence::FromCompactString("abcab");
  const std::vector<VariableId> duplicate{0, 1, 0};
  const std::vector<VariableId> outside{0, 3};
  for (const IntraHeuristic h : kAllHeuristics) {
    EXPECT_THROW((void)OrderVariables(h, seq.accesses(), duplicate,
                                      seq.num_variables()),
                 std::invalid_argument)
        << ToString(h);
    EXPECT_THROW((void)OrderVariables(h, seq.accesses(), outside,
                                      seq.num_variables()),
                 std::invalid_argument)
        << ToString(h);
  }
}

TEST(IntraHeuristics, ApplyIntraRejectsIdsOutsideTheSequence) {
  // The range form's counterpart of the checks above: a DBC that holds
  // an id the sequence never registered.
  const auto seq = AccessSequence::FromCompactString("abab");
  for (const IntraHeuristic h : kAllHeuristics) {
    if (h == IntraHeuristic::kNone) continue;
    Placement p = Placement::FromLists({{1, 0}, {2, 3}}, 4);
    EXPECT_THROW(ApplyIntra(h, seq, p, 0, 2), std::invalid_argument)
        << ToString(h);
  }
}

TEST(IntraHeuristics, ApplyIntraRangeOrdersEachDbcOfTheRange) {
  // Eight variables a..h (ids 0..7), accessed d c f e c. DBC 0 is outside
  // the range and keeps its order; DBCs 1 and 2 are ordered by first use,
  // never-accessed variables last in ascending id order.
  AccessSequence seq;
  for (const char* name : {"a", "b", "c", "d", "e", "f", "g", "h"}) {
    (void)seq.AddVariable(name);
  }
  for (const VariableId v : {3u, 2u, 5u, 4u, 2u}) seq.Append(v);
  Placement p = Placement::FromLists({{1, 0}, {6, 4, 2, 7}, {5, 3}}, 8);
  ApplyIntra(IntraHeuristic::kOfu, seq, p, 1, 3);
  p.CheckInvariants();
  EXPECT_EQ(p.dbc(0), (std::vector<VariableId>{1, 0}));
  EXPECT_EQ(p.dbc(1), (std::vector<VariableId>{2, 4, 6, 7}));
  EXPECT_EQ(p.dbc(2), (std::vector<VariableId>{3, 5}));
}

TEST(IntraHeuristics, ToStringNames) {
  EXPECT_EQ(ToString(IntraHeuristic::kNone), "none");
  EXPECT_EQ(ToString(IntraHeuristic::kOfu), "ofu");
  EXPECT_EQ(ToString(IntraHeuristic::kChen), "chen");
  EXPECT_EQ(ToString(IntraHeuristic::kShiftsReduce), "sr");
}

}  // namespace
}  // namespace rtmp::core
