#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "trace/access_sequence.h"
#include "trace/liveliness.h"
#include "trace/variable_stats.h"
#include "util/rng.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

std::vector<trace::VariableStats> StatsOf(const AccessSequence& seq) {
  return trace::ComputeVariableStats(seq);
}

TEST(DmaSelection, PicksBackToBackChains) {
  // aa bb cc: all disjoint, nothing nested -> all selected.
  const auto seq = AccessSequence::FromCompactString("aabbcc");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaSelection, SkipsOverlappingVariables) {
  // a and b interleave: only the earlier one can be taken.
  const auto seq = AccessSequence::FromCompactString("abab");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  // a: nested set empty -> selected (freq 2 > 0); b overlaps a's pick
  // window (F_b=1 <= L_a=2) -> skipped.
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0}));
}

TEST(DmaSelection, RejectsEnvelopeWithHeavyNestedTraffic) {
  // outer spans everything; inner variables carry more accesses.
  const auto seq = AccessSequence::FromCompactString("o" "bb" "cc" "o");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  // o(freq 2) vs nested b+c (4): rejected; then b, c are picked.
  EXPECT_EQ(disjoint.size(), 2u);
  EXPECT_EQ(disjoint[0], *seq.FindVariable("b"));
  EXPECT_EQ(disjoint[1], *seq.FindVariable("c"));
}

TEST(DmaSelection, AcceptsEnvelopeWithLightNestedTraffic) {
  // outer has 4 accesses, single nested variable has 2.
  const auto seq = AccessSequence::FromCompactString("oo" "bb" "oo");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0}));
}

TEST(DmaSelection, NestedSumSkipsAlreadySelected) {
  // After selecting b, its frequency must not count against later
  // candidates whose lifespan contains b's... construct: b early, then x
  // whose span contains c only.
  const auto seq = AccessSequence::FromCompactString("bb" "x" "cc" "x");
  const auto stats = StatsOf(seq);
  const auto disjoint = SelectDisjointVariables(stats);
  // b selected; x: nested = {c} (freq 2) vs freq(x)=2 -> not selected
  // (strict >); c: F_c=3 > L_b=1, nested empty -> selected.
  EXPECT_EQ(disjoint.size(), 2u);
  EXPECT_EQ(disjoint[0], *seq.FindVariable("b"));
  EXPECT_EQ(disjoint[1], *seq.FindVariable("c"));
}

TEST(DmaSelection, SelectionIsPairwiseDisjoint) {
  const char* traces[] = {
      "aabbcc", "ababcdcd", "abcabc", "aabb" "ccdd" "ee",
      "xyzzyx" "aabb",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto stats = StatsOf(seq);
    const auto disjoint = SelectDisjointVariables(stats);
    EXPECT_TRUE(trace::AllPairwiseDisjoint(stats, disjoint)) << text;
  }
}

TEST(DmaSelection, IgnoresAbsentVariables) {
  AccessSequence seq;
  seq.AddVariable("ghost");
  seq.AddVariable("a");
  seq.Append(1);
  seq.Append(1);
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{1}));
}

// ---- SelectDisjointVariables against the quadratic scan --------------------

/// Algorithm 1 lines 5-12 as the direct O(m^2) scan: for each candidate in
/// first-occurrence order, sum the frequencies of the later-starting
/// candidates whose lifespans nest strictly inside its own.
std::vector<VariableId> QuadraticSelectDisjointVariables(
    const std::vector<trace::VariableStats>& stats) {
  std::vector<VariableId> by_first;
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first != trace::kNever) by_first.push_back(v);
  }
  std::sort(by_first.begin(), by_first.end(),
            [&stats](VariableId a, VariableId b) {
              return stats[a].first < stats[b].first;
            });
  std::vector<VariableId> disjoint;
  std::int64_t tmin = -1;
  for (std::size_t i = 0; i < by_first.size(); ++i) {
    const trace::VariableStats& sv = stats[by_first[i]];
    if (static_cast<std::int64_t>(sv.first) <= tmin) continue;
    std::uint64_t nested = 0;
    for (std::size_t j = i + 1; j < by_first.size(); ++j) {
      const trace::VariableStats& su = stats[by_first[j]];
      if (su.first >= sv.last) break;
      if (trace::LifespanNestedWithin(su, sv)) nested += su.frequency;
    }
    if (sv.frequency > nested) {
      disjoint.push_back(by_first[i]);
      tmin = static_cast<std::int64_t>(sv.last);
    }
  }
  return disjoint;
}

/// Stats of `m` variables whose first and last occurrences are distinct
/// positions (as in any real sequence); each variable is absent with
/// probability `absent`, accessed once (first == last) with probability
/// 1/4, and otherwise has a random frequency in [2, 40].
std::vector<trace::VariableStats> RandomStats(std::size_t m, double absent,
                                              util::Rng& rng) {
  std::vector<std::size_t> positions(2 * m);
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  rng.Shuffle(positions);
  std::vector<trace::VariableStats> stats(m);
  for (std::size_t v = 0; v < m; ++v) {
    if (rng.NextBool(absent)) continue;
    const std::size_t a = positions[2 * v];
    const std::size_t b = positions[2 * v + 1];
    if (rng.NextBool(0.25)) {
      stats[v] = {1, a, a};
    } else {
      stats[v] = {2 + rng.NextBelow(39), std::min(a, b), std::max(a, b)};
    }
  }
  return stats;
}

TEST(DmaSelection, MatchesTheQuadraticScanOnRandomStats) {
  util::Rng rng(0xD15C0);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t m = rng.NextBelow(200);
    const double absent = trial % 3 == 0 ? 0.0 : 0.3;
    const auto stats = RandomStats(m, absent, rng);
    SCOPED_TRACE(trial);
    EXPECT_EQ(SelectDisjointVariables(stats),
              QuadraticSelectDisjointVariables(stats));
  }
}

TEST(DmaSelection, MatchesTheQuadraticScanOnEdgeLayouts) {
  using Stats = std::vector<trace::VariableStats>;
  const std::size_t m = 50;
  // Fully nested: v's lifespan [v, 2m - 1 - v] holds every later one.
  // Equal shells (only the innermost wins), doubling shells (the outermost
  // outweighs all it holds) and random ones.
  util::Rng rng(0xD15C1);
  for (int variant = 0; variant < 3; ++variant) {
    Stats nested(m);
    for (std::size_t v = 0; v < m; ++v) {
      const std::uint64_t frequency =
          variant == 0   ? 1
          : variant == 1 ? std::uint64_t{1} << (m - v)
                         : 1 + rng.NextBelow(100);
      nested[v] = {frequency, v, 2 * m - 1 - v};
    }
    EXPECT_EQ(SelectDisjointVariables(nested),
              QuadraticSelectDisjointVariables(nested));
    std::reverse(nested.begin(), nested.end());  // ids against positions
    EXPECT_EQ(SelectDisjointVariables(nested),
              QuadraticSelectDisjointVariables(nested));
  }
  // Fully disjoint, back to back: every candidate is selected.
  Stats chain(m);
  for (std::size_t v = 0; v < m; ++v) chain[v] = {2, 2 * v, 2 * v + 1};
  EXPECT_EQ(SelectDisjointVariables(chain).size(), m);
  EXPECT_EQ(SelectDisjointVariables(chain),
            QuadraticSelectDisjointVariables(chain));
  // One candidate among absent variables, and no candidate at all.
  Stats one(m);
  one[17] = {3, 4, 9};
  EXPECT_EQ(SelectDisjointVariables(one), (std::vector<VariableId>{17}));
  EXPECT_TRUE(SelectDisjointVariables(Stats(m)).empty());
  EXPECT_TRUE(SelectDisjointVariables(Stats{}).empty());
}

TEST(DmaDistribute, DisjointSetKeepsAccessOrderInLeadDbc) {
  const auto seq = AccessSequence::FromCompactString("bb" "aa" "cc");
  const auto result = DistributeDma(seq, 2, kUnboundedCapacity, {});
  EXPECT_EQ(result.disjoint_dbc_count, 1u);
  // Access order: b, a, c.
  EXPECT_EQ(result.placement.dbc(0),
            (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaDistribute, CompleteAndValidAcrossShapes) {
  const char* traces[] = {"a", "ab", "aabbcc", "abcabcabc",
                          "aabb" "xyxy" "ccdd"};
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    for (const std::uint32_t q : {1u, 2u, 4u}) {
      const auto result = DistributeDma(seq, q, kUnboundedCapacity, {});
      EXPECT_TRUE(result.placement.IsComplete()) << text << " q=" << q;
      result.placement.CheckInvariants();
    }
  }
}

TEST(DmaDistribute, RespectsCapacityAndSplitsDisjointSet) {
  // Six disjoint variables, capacity 2 -> K = 3 DBCs for the set.
  const auto seq = AccessSequence::FromCompactString("aabbccddeeff");
  const auto result = DistributeDma(seq, 4, 2, {});
  result.placement.CheckInvariants();
  EXPECT_EQ(result.disjoint.size(), 6u);
  EXPECT_EQ(result.disjoint_dbc_count, 3u);
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_LE(result.placement.dbc(d).size(), 2u);
  }
}

TEST(DmaDistribute, DisjointRoundRobinPreservesPerDbcOrder) {
  // With K=2, the set {a,b,c,d} interleaves a,c | b,d; each DBC's order
  // must still be ascending in first occurrence (monotone walk).
  const auto seq = AccessSequence::FromCompactString("aabbccdd");
  const auto result = DistributeDma(seq, 3, 2, {});
  ASSERT_EQ(result.disjoint_dbc_count, 2u);
  const auto& dbc0 = result.placement.dbc(0);
  const auto& dbc1 = result.placement.dbc(1);
  EXPECT_EQ(dbc0, (std::vector<trace::VariableId>{0, 2}));
  EXPECT_EQ(dbc1, (std::vector<trace::VariableId>{1, 3}));
}

TEST(DmaDistribute, TrimsDisjointSetWhenDbcsAreScarce) {
  // Five disjoint variables + one non-disjoint, 2 DBCs, capacity 3:
  // K would be 2 but one DBC must stay for the leftover -> trim to 3.
  const auto seq = AccessSequence::FromCompactString("aabbccddee" "xx");
  // x overlaps nothing? Put x interleaved with e to make it non-disjoint.
  const auto seq2 = AccessSequence::FromCompactString("aabbccdd" "exexe");
  const auto result = DistributeDma(seq2, 2, 6, {});
  result.placement.CheckInvariants();
  EXPECT_TRUE(result.placement.IsComplete());
  EXPECT_LE(result.disjoint_dbc_count, 1u);
  (void)seq;
}

TEST(DmaDistribute, LeftoversSpillRoundRobinIntoDisjointDbcs) {
  // a..f are back to back and disjoint; g..t each span all of them, so
  // their nested traffic outweighs their own and they stay leftovers.
  // 4 DBCs of capacity 5: Vdj takes K = 2 DBCs (a c e | b d f), g..t
  // (equal frequency, so by name) fill DBCs 2 and 3 round-robin, and the
  // last four spill round-robin into the disjoint DBCs' free tails,
  // starting at DBC 0.
  const auto seq = AccessSequence::FromCompactString(
      "ghijklmnopqrst" "aabbccddeeff" "ghijklmnopqrst");
  const auto result = DistributeDma(seq, 4, 5, {IntraHeuristic::kNone});
  result.placement.CheckInvariants();
  ASSERT_EQ(result.disjoint_dbc_count, 2u);
  const std::vector<std::string> expected = {"aceqs", "bdfrt", "gikmo",
                                             "hjlnp"};
  for (std::uint32_t d = 0; d < 4; ++d) {
    std::string names;
    for (const VariableId v : result.placement.dbc(d)) {
      names += seq.name_of(v);
    }
    EXPECT_EQ(names, expected[d]) << "DBC " << d;
  }
}

TEST(DmaDistribute, LeftoversAreFrequencySorted) {
  // Positions: x0 z1 y2 z3 z4 x5 x6 y7 -> x:[0,6] f3, z:[1,4] f3,
  // y:[2,7] f2. x is rejected (z nests inside it with equal traffic),
  // z is selected (tmin = 4), y starts at 2 <= 4 so it stays non-disjoint.
  // Leftovers must deal in descending frequency: x (3) before y (2).
  const auto seq = AccessSequence::FromCompactString("xzyzzxxy");
  const auto result =
      DistributeDma(seq, 2, kUnboundedCapacity, {IntraHeuristic::kNone});
  ASSERT_EQ(result.disjoint_dbc_count, 1u);
  EXPECT_EQ(result.disjoint,
            (std::vector<trace::VariableId>{*seq.FindVariable("z")}));
  const auto& leftovers = result.placement.dbc(1);
  ASSERT_EQ(leftovers.size(), 2u);
  EXPECT_EQ(leftovers[0], *seq.FindVariable("x"));
  EXPECT_EQ(leftovers[1], *seq.FindVariable("y"));
}

TEST(DmaDistribute, ThrowsWhenVariablesExceedTotalCapacity) {
  const auto seq = AccessSequence::FromCompactString("abcdef");
  EXPECT_THROW(DistributeDma(seq, 2, 2, {}), std::invalid_argument);
}

TEST(DmaDistribute, SingleDbcDegeneratesGracefully) {
  const auto seq = AccessSequence::FromCompactString("aabb" "xyxy");
  const auto result = DistributeDma(seq, 1, kUnboundedCapacity, {});
  EXPECT_TRUE(result.placement.IsComplete());
  EXPECT_EQ(result.placement.num_dbcs(), 1u);
  result.placement.CheckInvariants();
}

TEST(DmaDistribute, AllDisjointSingleDbcKeepsAccessOrder) {
  const auto seq = AccessSequence::FromCompactString("aabbcc");
  const auto result = DistributeDma(seq, 1, kUnboundedCapacity, {});
  EXPECT_EQ(result.placement.dbc(0),
            (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaDistribute, PhasedWorkloadBeatsAfd) {
  // Three phases with disjoint hot sets plus persistent globals: the
  // showcase workload for liveliness-aware distribution.
  const auto seq = AccessSequence::FromCompactString(
      "g" "ababab" "g" "cdcdcd" "g" "efefef" "g");
  const Placement afd =
      DistributeAfd(seq, 2, kUnboundedCapacity, {IntraHeuristic::kOfu});
  const auto dma =
      DistributeDma(seq, 2, kUnboundedCapacity, {IntraHeuristic::kOfu});
  EXPECT_LE(ShiftCost(seq, dma.placement), ShiftCost(seq, afd));
}

TEST(DmaDistribute, DisjointDbcObeysTheLMinusOneBound) {
  const char* traces[] = {"aabbcc", "aaabbbccc", "abbcccddddd" "xyxy"};
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto result = DistributeDma(seq, 2, kUnboundedCapacity, {});
    if (result.disjoint.empty()) continue;
    const auto per_dbc = PerDbcShiftCost(seq, result.placement);
    std::uint64_t disjoint_cost = 0;
    for (std::uint32_t d = 0; d < result.disjoint_dbc_count; ++d) {
      disjoint_cost += per_dbc[d];
    }
    EXPECT_LE(disjoint_cost, result.disjoint.size() - 1) << text;
  }
}

}  // namespace
}  // namespace rtmp::core
