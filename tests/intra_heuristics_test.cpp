#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "core/placement_workspace.h"
#include "trace/access_sequence.h"
#include "util/rng.h"

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

// ---- GroupedProblems against a from-scratch oracle -------------------------
//
// Each group's problem is rebuilt from its definition: restrict the stream
// to the group, number its variables by first access, count each one's
// accesses and each unordered pair of consecutive distinct accesses.

struct OracleProblem {
  std::vector<VariableId> globals;
  std::vector<VariableId> unused;
  std::vector<std::uint64_t> frequency;
  std::map<std::pair<VariableId, VariableId>, std::uint64_t> weight;
};

OracleProblem OracleOf(const AccessSequence& seq,
                       const std::vector<VariableId>& members) {
  OracleProblem oracle;
  std::map<VariableId, VariableId> local;
  std::vector<VariableId> restricted;
  for (const trace::Access& access : seq.accesses()) {
    if (std::find(members.begin(), members.end(), access.variable) ==
        members.end()) {
      continue;
    }
    if (local.emplace(access.variable, oracle.globals.size()).second) {
      oracle.globals.push_back(access.variable);
      oracle.frequency.push_back(0);
    }
    restricted.push_back(local.at(access.variable));
  }
  for (std::size_t i = 0; i < restricted.size(); ++i) {
    ++oracle.frequency[restricted[i]];
    if (i > 0 && restricted[i - 1] != restricted[i]) {
      const std::pair<VariableId, VariableId> key =
          std::minmax(restricted[i - 1], restricted[i]);
      ++oracle.weight[key];
    }
  }
  for (const VariableId v : members) {
    if (!local.contains(v)) oracle.unused.push_back(v);
  }
  std::sort(oracle.unused.begin(), oracle.unused.end());
  return oracle;
}

TEST(GroupedProblems, MatchBuiltFromScratchPerGroup) {
  util::Rng rng(0x6E0C);
  GroupedProblems problems;  // reused across rounds, as in a workspace
  for (int round = 0; round < 300; ++round) {
    const std::size_t n = 1 + rng.NextBelow(24);
    AccessSequence seq;
    for (std::size_t v = 0; v < n; ++v) seq.AddVariable(std::to_string(v));
    // A skewed stream with repeats, over a random part of the space.
    const std::size_t hot = 1 + rng.NextBelow(n);
    const std::size_t length = rng.NextBelow(160);
    for (std::size_t i = 0; i < length; ++i) {
      seq.Append(static_cast<VariableId>(rng.NextBool(0.7)
                                             ? rng.NextBelow(hot)
                                             : rng.NextBelow(n)));
    }
    // A random split into DBC groups; some variables join no group.
    const std::size_t q = 1 + rng.NextBelow(6);
    std::vector<std::vector<VariableId>> groups(q);
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.NextBool(0.15)) continue;
      groups[rng.NextBelow(q)].push_back(static_cast<VariableId>(v));
    }
    for (auto& group : groups) rng.Shuffle(group);

    problems.Reset(seq.accesses(), n);
    for (const auto& group : groups) problems.AddGroup(group);
    problems.Index();
    // Build the groups in a random order: each Build stands alone.
    std::vector<std::uint32_t> order(q);
    for (std::uint32_t g = 0; g < q; ++g) order[g] = g;
    rng.Shuffle(order);
    for (const std::uint32_t g : order) {
      SCOPED_TRACE(testing::Message() << "round " << round << " group " << g);
      const OracleProblem oracle = OracleOf(seq, groups[g]);
      const LocalProblem& built = problems.Build(g);
      ASSERT_EQ(std::vector<VariableId>(built.globals.begin(),
                                        built.globals.end()),
                oracle.globals);
      ASSERT_EQ(std::vector<VariableId>(built.unused.begin(),
                                        built.unused.end()),
                oracle.unused);
      std::vector<VariableId> first_use = oracle.globals;
      first_use.insert(first_use.end(), oracle.unused.begin(),
                       oracle.unused.end());
      const auto order_of_first_use = problems.FirstUseOrder(g);
      EXPECT_EQ(std::vector<VariableId>(order_of_first_use.begin(),
                                        order_of_first_use.end()),
                first_use);
      EXPECT_EQ(built.frequency, oracle.frequency);
      std::map<std::pair<VariableId, VariableId>, std::uint64_t> weight;
      for (std::size_t u = 0; u < built.size(); ++u) {
        VariableId previous = 0;
        bool first = true;
        for (const Edge& edge : built.adjacency(u)) {
          EXPECT_TRUE(first || previous < edge.neighbor) << "unsorted " << u;
          previous = edge.neighbor;
          first = false;
          const auto v = static_cast<VariableId>(u);
          const std::pair<VariableId, VariableId> key =
              std::minmax(v, edge.neighbor);
          // Both endpoints list the edge with the same weight.
          if (v == key.first) {
            weight[key] = edge.weight;
          } else {
            EXPECT_EQ(weight[key], edge.weight) << u;
          }
        }
      }
      EXPECT_EQ(weight, oracle.weight);
    }
  }
}

TEST(IntraHeuristics, ToStringNames) {
  EXPECT_EQ(ToString(IntraHeuristic::kNone), "none");
  EXPECT_EQ(ToString(IntraHeuristic::kOfu), "ofu");
  EXPECT_EQ(ToString(IntraHeuristic::kChen), "chen");
  EXPECT_EQ(ToString(IntraHeuristic::kShiftsReduce), "sr");
}

}  // namespace
}  // namespace rtmp::core
