// Equivalence pins for the re-seed hot path.
//
// The online engine re-runs the paper's DMA heuristic (Alg. 1) and plans a
// migration on every phase change, over the whole session's variable
// space. PlanMigration, SortByFrequencyDescending and
// SelectDisjointVariables avoid sorting or scanning the idle part of that
// space, and the range ApplyIntra orders a run of DBCs from one scan of
// the stream over shared scratch; each must still return exactly what the
// straightforward formulation returns. The reference bodies below are
// those formulations, kept verbatim as oracles, and every comparison runs
// on randomised inputs that include zero-frequency variables and scrambled
// MakeVariableName names (name order != id order).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "core/intra_heuristics.h"
#include "core/multi_dma.h"
#include "core/placement.h"
#include "core/placement_workspace.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "online/migration.h"
#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "trace/variable_stats.h"
#include "util/rng.h"

namespace rtmp {
namespace {

using online::AppendSweepRequests;
using trace::VariableId;

// ---- reference implementations -------------------------------------------

online::MigrationPlan ReferencePlanMigration(const core::Placement& from,
                                             const core::Placement& to) {
  if (from.num_variables() != to.num_variables()) {
    throw std::invalid_argument(
        "PlanMigration: placements cover different variable spaces");
  }
  online::MigrationPlan plan;
  for (VariableId v = 0; v < from.num_variables(); ++v) {
    const bool placed_from = from.IsPlaced(v);
    if (placed_from != to.IsPlaced(v)) {
      throw std::invalid_argument(
          "PlanMigration: variable placed in only one placement");
    }
    if (!placed_from) continue;
    const core::Slot old_slot = from.SlotOf(v);
    const core::Slot new_slot = to.SlotOf(v);
    if (old_slot == new_slot) continue;
    plan.moves.push_back({v, old_slot, new_slot});
  }
  if (plan.moves.empty()) return plan;
  std::sort(plan.moves.begin(), plan.moves.end(),
            [](const online::MigrationMove& a, const online::MigrationMove& b) {
              if (a.from.dbc != b.from.dbc) return a.from.dbc < b.from.dbc;
              if (a.from.offset != b.from.offset) {
                return a.from.offset < b.from.offset;
              }
              return a.variable < b.variable;
            });
  std::vector<core::Slot> slots;
  for (const online::MigrationMove& move : plan.moves) {
    slots.push_back(move.from);
  }
  plan.estimated_shifts +=
      AppendSweepRequests(slots, trace::AccessType::kRead, plan.requests);
  slots.clear();
  for (const online::MigrationMove& move : plan.moves) {
    slots.push_back(move.to);
  }
  std::sort(slots.begin(), slots.end(),
            [](const core::Slot& a, const core::Slot& b) {
              if (a.dbc != b.dbc) return a.dbc < b.dbc;
              return a.offset < b.offset;
            });
  plan.estimated_shifts +=
      AppendSweepRequests(slots, trace::AccessType::kWrite, plan.requests);
  return plan;
}

std::vector<VariableId> ReferenceSortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq) {
  std::vector<VariableId> order(stats.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&stats, &seq](VariableId a, VariableId b) {
                     if (stats[a].frequency != stats[b].frequency) {
                       return stats[a].frequency > stats[b].frequency;
                     }
                     return seq.name_of(a) < seq.name_of(b);
                   });
  return order;
}

std::vector<VariableId> ReferenceSelectDisjointVariables(
    const std::vector<trace::VariableStats>& stats) {
  std::vector<VariableId> by_first;
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first != trace::kNever) by_first.push_back(v);
  }
  std::sort(by_first.begin(), by_first.end(),
            [&stats](VariableId a, VariableId b) {
              return stats[a].first < stats[b].first;
            });
  std::vector<bool> selected(stats.size(), false);
  std::vector<VariableId> disjoint;
  std::int64_t tmin = -1;
  for (const VariableId v : by_first) {
    const trace::VariableStats& sv = stats[v];
    if (static_cast<std::int64_t>(sv.first) <= tmin) continue;
    std::uint64_t nested = 0;
    for (VariableId u = 0; u < stats.size(); ++u) {
      if (u == v || selected[u]) continue;
      if (trace::LifespanNestedWithin(stats[u], sv)) {
        nested += stats[u].frequency;
      }
    }
    if (sv.frequency > nested) {
      selected[v] = true;
      disjoint.push_back(v);
      tmin = static_cast<std::int64_t>(sv.last);
    }
  }
  return disjoint;
}

/// The per-DBC intra step the constructive strategies looped over before
/// the range form: one Restrict and one OrderVariables per DBC.
void ReferenceApplyIntra(core::IntraHeuristic heuristic,
                         const trace::AccessSequence& seq,
                         core::Placement& placement, std::uint32_t dbc) {
  if (heuristic == core::IntraHeuristic::kNone) return;
  const auto& vars = placement.dbc(dbc);
  if (vars.size() < 2) return;
  const std::vector<trace::Access> restricted = seq.Restrict(vars);
  placement.Reorder(dbc, core::OrderVariables(heuristic, restricted, vars,
                                              seq.num_variables()));
}

void ReferenceApplyIntraRange(core::IntraHeuristic heuristic,
                              const trace::AccessSequence& seq,
                              core::Placement& placement,
                              std::uint32_t first_dbc, std::uint32_t end_dbc) {
  for (std::uint32_t d = first_dbc; d < end_dbc; ++d) {
    ReferenceApplyIntra(heuristic, seq, placement, d);
  }
}

// ---- randomised inputs ---------------------------------------------------

/// `num_vars` variables with scrambled generator names, registered in a
/// shuffled index order, of which only the first `active` ids are
/// accessed: the rest model a session's idle variable space. Accesses
/// come from a sliding window of live ids, so lifespans are short, often
/// disjoint and sometimes nested — the structure DMA's selection reads.
trace::AccessSequence RandomSession(std::size_t num_vars, std::size_t active,
                                    std::size_t length, util::Rng& rng) {
  std::vector<std::size_t> indexes(num_vars);
  std::iota(indexes.begin(), indexes.end(), std::size_t{0});
  rng.Shuffle(indexes);
  trace::AccessSequence seq;
  for (const std::size_t index : indexes) {
    (void)seq.AddVariable(trace::MakeVariableName(index));
  }
  if (active == 0) return seq;
  const std::size_t window = 1 + rng.NextBelow(4);
  std::size_t base = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (rng.NextBool(0.2)) base = (base + 1) % active;
    std::size_t v = (base + rng.NextBelow(window)) % active;
    if (rng.NextBool(0.1)) v = rng.NextBelow(active);
    trace::AccessType type = trace::AccessType::kRead;
    if (rng.NextBool(0.3)) type = trace::AccessType::kWrite;
    seq.Append(static_cast<VariableId>(v), type);
  }
  return seq;
}

/// A random placement of `placed` (a 0/1 mask over ids) into `num_dbcs`
/// lists of at most `capacity` entries each.
core::Placement RandomPlacement(const std::vector<bool>& placed,
                                std::uint32_t num_dbcs, std::uint32_t capacity,
                                util::Rng& rng) {
  std::vector<VariableId> ids;
  for (VariableId v = 0; v < placed.size(); ++v) {
    if (placed[v]) ids.push_back(v);
  }
  rng.Shuffle(ids);
  core::Placement p(placed.size(), num_dbcs, capacity);
  for (const VariableId v : ids) {
    auto d = static_cast<std::uint32_t>(rng.NextBelow(num_dbcs));
    while (p.FreeIn(d) == 0) d = (d + 1) % num_dbcs;
    p.Append(d, v);
  }
  return p;
}

/// `from` with a handful of GA-style edits: the "mostly unchanged"
/// migrations a refinement pass produces.
core::Placement Perturb(const core::Placement& from, util::Rng& rng) {
  core::Placement to = from;
  const std::size_t edits = rng.NextBelow(6);
  for (std::size_t e = 0; e < edits; ++e) {
    const auto d = static_cast<std::uint32_t>(rng.NextBelow(to.num_dbcs()));
    const std::size_t size = to.dbc(d).size();
    if (size == 0) continue;
    if (rng.NextBool(0.5)) {
      to.Transpose(d, rng.NextBelow(size), rng.NextBelow(size));
    } else {
      const VariableId v = to.dbc(d)[rng.NextBelow(size)];
      const auto target =
          static_cast<std::uint32_t>(rng.NextBelow(to.num_dbcs()));
      if (target == d || to.FreeIn(target) > 0) to.MoveToEnd(v, target);
    }
  }
  return to;
}

void ExpectSamePlan(const online::MigrationPlan& got,
                    const online::MigrationPlan& want) {
  ASSERT_EQ(got.moves.size(), want.moves.size());
  for (std::size_t i = 0; i < got.moves.size(); ++i) {
    EXPECT_EQ(got.moves[i].variable, want.moves[i].variable) << i;
    EXPECT_EQ(got.moves[i].from, want.moves[i].from) << i;
    EXPECT_EQ(got.moves[i].to, want.moves[i].to) << i;
  }
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    EXPECT_EQ(got.requests[i].arrival_ns, want.requests[i].arrival_ns) << i;
    EXPECT_EQ(got.requests[i].dbc, want.requests[i].dbc) << i;
    EXPECT_EQ(got.requests[i].domain, want.requests[i].domain) << i;
    EXPECT_EQ(got.requests[i].type, want.requests[i].type) << i;
  }
  EXPECT_EQ(got.estimated_shifts, want.estimated_shifts);
}

// ---- PlanMigration -------------------------------------------------------

TEST(ReseedEquivalence, PlanMigrationMatchesSortedReference) {
  util::Rng rng(0x5EED0001);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(80);
    const auto num_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(8));
    std::uint32_t capacity = core::kUnboundedCapacity;
    if (rng.NextBool(0.5)) {
      const std::size_t fill = (n + num_dbcs - 1) / num_dbcs;
      capacity = static_cast<std::uint32_t>(fill + rng.NextBelow(3));
    }
    std::vector<bool> placed(n);
    for (std::size_t v = 0; v < n; ++v) placed[v] = !rng.NextBool(0.1);

    const core::Placement from =
        RandomPlacement(placed, num_dbcs, capacity, rng);
    core::Placement to = Perturb(from, rng);
    if (rng.NextBool(0.5)) {
      to = RandomPlacement(placed, num_dbcs, capacity, rng);
    }
    SCOPED_TRACE(trial);
    ExpectSamePlan(online::PlanMigration(from, to),
                   ReferencePlanMigration(from, to));
    EXPECT_TRUE(online::PlanMigration(from, from).empty());
  }
}

TEST(ReseedEquivalence, PlanMigrationAcrossDifferentDbcCounts) {
  // The walk covers each side's own DBC range; a placement over more DBCs
  // than its counterpart still diffs like the reference.
  util::Rng rng(0x5EED0002);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(40);
    const std::vector<bool> placed(n, true);
    const auto from_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    const auto to_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(8));
    const core::Placement from =
        RandomPlacement(placed, from_dbcs, core::kUnboundedCapacity, rng);
    const core::Placement to =
        RandomPlacement(placed, to_dbcs, core::kUnboundedCapacity, rng);
    SCOPED_TRACE(trial);
    ExpectSamePlan(online::PlanMigration(from, to),
                   ReferencePlanMigration(from, to));
  }
}

void ExpectBothReject(const core::Placement& from, const core::Placement& to) {
  EXPECT_THROW((void)online::PlanMigration(from, to), std::invalid_argument);
  EXPECT_THROW((void)ReferencePlanMigration(from, to), std::invalid_argument);
}

TEST(ReseedEquivalence, PlanMigrationRejectsWhatTheReferenceRejects) {
  const core::Placement a = core::Placement::FromLists({{0, 1}}, 2);
  const core::Placement b = core::Placement::FromLists({{0, 1, 2}}, 3);
  ExpectBothReject(a, b);
  // Placed in `from` only, in `to` only, and the same count of placed
  // variables over different sets.
  const core::Placement only0 = core::Placement::FromLists({{0}}, 2);
  const core::Placement only1 = core::Placement::FromLists({{}, {1}}, 2);
  ExpectBothReject(a, only0);
  ExpectBothReject(only0, a);
  ExpectBothReject(only0, only1);
  ExpectBothReject(only1, only0);
}

// ---- SortByFrequencyDescending -------------------------------------------

TEST(ReseedEquivalence, FrequencySortMatchesNameTieBreakReference) {
  util::Rng rng(0x5EED0003);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(300);
    const std::size_t active = rng.NextBelow(n + 1);
    const trace::AccessSequence seq =
        RandomSession(n, active, rng.NextBelow(400), rng);
    const auto stats = trace::ComputeVariableStats(seq);
    SCOPED_TRACE(trial);
    EXPECT_EQ(core::SortByFrequencyDescending(stats, seq),
              ReferenceSortByFrequencyDescending(stats, seq));
    // A prefix of the stats orders just that prefix of the ids.
    const std::size_t cut = rng.NextBelow(n + 1);
    const auto prefix = std::span<const trace::VariableStats>(stats).first(cut);
    EXPECT_EQ(core::SortByFrequencyDescending(prefix, seq),
              ReferenceSortByFrequencyDescending(prefix, seq));
  }
}

TEST(ReseedEquivalence, FrequencySortRejectsStatsBeyondTheSequence) {
  const auto seq = trace::AccessSequence::FromCompactString("abca");
  std::vector<trace::VariableStats> stats = trace::ComputeVariableStats(seq);
  stats.emplace_back();
  EXPECT_THROW((void)core::SortByFrequencyDescending(stats, seq),
               std::invalid_argument);
}

// ---- SelectDisjointVariables ---------------------------------------------

TEST(ReseedEquivalence, DisjointSelectionMatchesFullScanReference) {
  util::Rng rng(0x5EED0004);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(300);
    const std::size_t active = rng.NextBelow(n + 1);
    const trace::AccessSequence seq =
        RandomSession(n, active, rng.NextBelow(600), rng);
    std::vector<trace::VariableStats> stats = trace::ComputeVariableStats(seq);
    SCOPED_TRACE(trial);
    EXPECT_EQ(core::SelectDisjointVariables(stats),
              ReferenceSelectDisjointVariables(stats));
    // Multi-set DMA masks claimed variables by blanking their stats.
    for (auto& s : stats) {
      if (rng.NextBool(0.3)) s = trace::VariableStats{};
    }
    EXPECT_EQ(core::SelectDisjointVariables(stats),
              ReferenceSelectDisjointVariables(stats));
  }
}

TEST(ReseedEquivalence, DisjointSelectionMatchesOnGeneratorStreams) {
  util::Rng rng(0x5EED0005);
  for (int trial = 0; trial < 40; ++trial) {
    trace::AccessSequence seq;
    if (trial % 2 == 0) {
      trace::PhasedParams params;
      params.num_phases = 2 + rng.NextBelow(6);
      params.vars_per_phase = 2 + rng.NextBelow(10);
      seq = trace::GeneratePhased(params, rng);
    } else {
      trace::SequentialParams params;
      params.num_vars = 8 + rng.NextBelow(64);
      params.length = 64 + rng.NextBelow(512);
      seq = trace::GenerateSequential(params, rng);
    }
    // Idle variables: registered, never accessed.
    for (std::size_t i = 0; i < rng.NextBelow(50); ++i) {
      (void)seq.AddVariable(trace::MakeVariableName(10'000 + i));
    }
    const auto stats = trace::ComputeVariableStats(seq);
    SCOPED_TRACE(trial);
    EXPECT_EQ(core::SelectDisjointVariables(stats),
              ReferenceSelectDisjointVariables(stats));
    EXPECT_EQ(core::SortByFrequencyDescending(stats, seq),
              ReferenceSortByFrequencyDescending(stats, seq));
  }
}

// ---- range ApplyIntra ----------------------------------------------------

constexpr std::array<core::IntraHeuristic, 5> kIntraHeuristics = {
    core::IntraHeuristic::kNone, core::IntraHeuristic::kOfu,
    core::IntraHeuristic::kChen, core::IntraHeuristic::kShiftsReduce,
    core::IntraHeuristic::kGreedyEdge};

/// Per-DBC lists, so a mismatch prints readable ids.
std::vector<std::vector<VariableId>> Lists(const core::Placement& p) {
  std::vector<std::vector<VariableId>> lists;
  for (std::uint32_t d = 0; d < p.num_dbcs(); ++d) lists.push_back(p.dbc(d));
  return lists;
}

/// Property independent of any shared code path: every DBC in
/// [first_dbc, end_dbc) with two or more variables lists its accessed
/// variables first and its never-accessed ones last, in ascending id
/// order.
void ExpectAccessedThenUnusedAscending(const trace::AccessSequence& seq,
                                       const core::Placement& placement,
                                       std::uint32_t first_dbc,
                                       std::uint32_t end_dbc) {
  std::vector<bool> accessed(seq.num_variables(), false);
  for (const trace::Access& a : seq.accesses()) accessed[a.variable] = true;
  for (std::uint32_t d = first_dbc; d < end_dbc; ++d) {
    const auto& list = placement.dbc(d);
    if (list.size() < 2) continue;
    std::size_t split = 0;
    while (split < list.size() && accessed[list[split]]) ++split;
    for (std::size_t i = split; i < list.size(); ++i) {
      EXPECT_FALSE(accessed[list[i]]) << "dbc " << d << " offset " << i;
      if (i > split) {
        EXPECT_LT(list[i - 1], list[i]) << "dbc " << d;
      }
    }
  }
}

/// Runs the range form and the per-DBC reference on copies of `placement`
/// and expects identical results for every intra heuristic.
void ExpectRangeMatchesReference(const trace::AccessSequence& seq,
                                 const core::Placement& placement,
                                 std::uint32_t first_dbc,
                                 std::uint32_t end_dbc) {
  for (const core::IntraHeuristic heuristic : kIntraHeuristics) {
    SCOPED_TRACE(core::ToString(heuristic));
    core::Placement got = placement;
    core::Placement want = placement;
    core::ApplyIntra(heuristic, seq, got, first_dbc, end_dbc);
    ReferenceApplyIntraRange(heuristic, seq, want, first_dbc, end_dbc);
    got.CheckInvariants();
    EXPECT_EQ(Lists(got), Lists(want));
    if (heuristic != core::IntraHeuristic::kNone) {
      ExpectAccessedThenUnusedAscending(seq, got, first_dbc, end_dbc);
    }
  }
}

TEST(ReseedEquivalence, IntraRangeMatchesPerDbcReference) {
  // Random sub-ranges leave DBCs outside [first, end) untouched; capacities
  // run from unbounded to exactly full, and DBC counts up to twice the
  // variable count leave DBCs with zero or one variable.
  util::Rng rng(0x5EED0006);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.NextBelow(120);
    const std::size_t active = rng.NextBelow(n + 1);
    const trace::AccessSequence seq =
        RandomSession(n, active, rng.NextBelow(500), rng);
    const auto num_dbcs = static_cast<std::uint32_t>(
        1 + rng.NextBelow(std::min<std::size_t>(2 * n, 16)));
    std::uint32_t capacity = core::kUnboundedCapacity;
    if (rng.NextBool(0.6)) {
      const std::size_t fill = (n + num_dbcs - 1) / num_dbcs;
      capacity = static_cast<std::uint32_t>(fill + rng.NextBelow(2));
    }
    std::vector<bool> placed(n);
    for (std::size_t v = 0; v < n; ++v) placed[v] = !rng.NextBool(0.05);
    const core::Placement placement =
        RandomPlacement(placed, num_dbcs, capacity, rng);
    const auto first =
        static_cast<std::uint32_t>(rng.NextBelow(num_dbcs + 1));
    const auto end = static_cast<std::uint32_t>(
        first + rng.NextBelow(num_dbcs - first + 1));
    SCOPED_TRACE(trial);
    ExpectRangeMatchesReference(seq, placement, first, end);
    ExpectRangeMatchesReference(seq, placement, 0, num_dbcs);
  }
}

TEST(ReseedEquivalence, IntraRangeMatchesOnAdaptiveStreamWindows) {
  // The online re-seed's shape: a 256-access window over 1,280 variables
  // on 16 full DBCs of 80 slots, so nearly every variable is idle.
  util::Rng rng(0x5EED0007);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t active = 8 + rng.NextBelow(120);
    const trace::AccessSequence seq = RandomSession(1280, active, 256, rng);
    const std::vector<bool> placed(1280, true);
    const core::Placement placement = RandomPlacement(placed, 16, 80, rng);
    SCOPED_TRACE(trial);
    ExpectRangeMatchesReference(seq, placement, 0, 16);
    ExpectRangeMatchesReference(seq, placement, 1 + trial % 15, 16);
  }
}

TEST(ReseedEquivalence, IntraRangeMatchesOnTraceReplayStreams) {
  // The static path's shape: one long Markov stream over more than 1,100
  // variables on 16 full DBCs, so every DBC holds a dense slice of the
  // stream and the single scan shares the stream across 16 groups.
  util::Rng rng(0x5EED0009);
  for (const std::size_t n : {std::size_t{1120}, std::size_t{1216}}) {
    trace::MarkovParams params;
    params.num_vars = n;
    params.length = 20'000;
    params.locality_window = 8;
    const trace::AccessSequence seq = trace::GenerateMarkov(params, rng);
    const std::vector<bool> placed(n, true);
    const auto capacity = static_cast<std::uint32_t>(n / 16);
    const core::Placement placement =
        RandomPlacement(placed, 16, capacity, rng);
    for (std::uint32_t d = 0; d < 16; ++d) {
      ASSERT_EQ(placement.FreeIn(d), 0u) << d;
    }
    SCOPED_TRACE(n);
    ExpectRangeMatchesReference(seq, placement, 0, 16);
    ExpectRangeMatchesReference(seq, placement, 3, 16);
  }
}

TEST(ReseedEquivalence, StrategiesMatchPerDbcIntraReference) {
  // AFD, DMA and multi-set DMA with each intra heuristic must equal their
  // kNone placement followed by the per-DBC reference over the DBCs each
  // strategy hands to the intra step.
  util::Rng rng(0x5EED0008);
  for (int trial = 0; trial < 120; ++trial) {
    const bool adaptive_shape = trial % 10 == 0;
    const std::size_t n = adaptive_shape ? 1280 : 1 + rng.NextBelow(150);
    const std::size_t active =
        adaptive_shape ? 8 + rng.NextBelow(120) : rng.NextBelow(n + 1);
    const std::size_t length = adaptive_shape ? 256 : rng.NextBelow(600);
    const trace::AccessSequence seq = RandomSession(n, active, length, rng);
    const auto num_dbcs = static_cast<std::uint32_t>(
        adaptive_shape ? 16 : 1 + rng.NextBelow(12));
    auto capacity = static_cast<std::uint32_t>(
        (n + num_dbcs - 1) / num_dbcs + rng.NextBelow(3));
    if (!adaptive_shape && rng.NextBool(0.2)) {
      capacity = core::kUnboundedCapacity;
    }
    const core::IntraHeuristic none = core::IntraHeuristic::kNone;
    const core::Placement afd_none =
        core::DistributeAfd(seq, num_dbcs, capacity, {none});
    const core::DmaResult dma_none =
        core::DistributeDma(seq, num_dbcs, capacity, {none});
    core::MultiDmaOptions multi;
    multi.base.intra = none;
    const core::MultiDmaResult multi_none =
        core::DistributeMultiDma(seq, num_dbcs, capacity, multi);
    std::size_t claimed = 0;
    for (const auto& set : multi_none.sets) claimed += set.size();
    const std::uint32_t multi_first =
        std::min(multi_none.disjoint_dbc_count, num_dbcs - 1);
    SCOPED_TRACE(trial);
    for (const core::IntraHeuristic heuristic : kIntraHeuristics) {
      SCOPED_TRACE(core::ToString(heuristic));

      core::Placement afd_want = afd_none;
      ReferenceApplyIntraRange(heuristic, seq, afd_want, 0, num_dbcs);
      const core::Placement afd_got =
          core::DistributeAfd(seq, num_dbcs, capacity, {heuristic});
      EXPECT_EQ(Lists(afd_got), Lists(afd_want));

      core::Placement dma_want = dma_none.placement;
      if (num_dbcs > 1 || dma_none.disjoint.empty()) {
        ReferenceApplyIntraRange(heuristic, seq, dma_want,
                                 dma_none.disjoint_dbc_count, num_dbcs);
      }
      const core::DmaResult dma_got =
          core::DistributeDma(seq, num_dbcs, capacity, {heuristic});
      EXPECT_EQ(Lists(dma_got.placement), Lists(dma_want));

      core::Placement multi_want = multi_none.placement;
      if (claimed < n) {
        ReferenceApplyIntraRange(heuristic, seq, multi_want, multi_first,
                                 num_dbcs);
      }
      multi.base.intra = heuristic;
      const core::MultiDmaResult multi_got =
          core::DistributeMultiDma(seq, num_dbcs, capacity, multi);
      EXPECT_EQ(Lists(multi_got.placement), Lists(multi_want));
    }
  }
}

TEST(ReseedEquivalence, IntraRangeRejectsWhatTheReferenceRejects) {
  // A DBC holding an id beyond the sequence's variable space: the
  // reference throws from its bounds-checked lookup, the range form with
  // std::invalid_argument; both leave no reordered DBC behind.
  const auto seq = trace::AccessSequence::FromCompactString("abab");
  const core::Placement wide = core::Placement::FromLists({{0, 1}, {3, 2}}, 4);
  for (const core::IntraHeuristic heuristic : kIntraHeuristics) {
    if (heuristic == core::IntraHeuristic::kNone) continue;
    core::Placement got = wide;
    core::Placement want = wide;
    EXPECT_THROW(core::ApplyIntra(heuristic, seq, got, 0, 2),
                 std::invalid_argument);
    EXPECT_THROW(ReferenceApplyIntraRange(heuristic, seq, want, 1, 2),
                 std::logic_error);
    EXPECT_EQ(got, wide);
  }
  // DBC ranges outside the placement.
  core::Placement p = core::Placement::FromLists({{0, 1}}, 2);
  EXPECT_THROW(core::ApplyIntra(core::IntraHeuristic::kOfu, seq, p, 0, 2),
               std::invalid_argument);
  EXPECT_THROW(core::ApplyIntra(core::IntraHeuristic::kOfu, seq, p, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(core::ApplyIntra(core::IntraHeuristic::kOfu, seq, p, 1),
               std::invalid_argument);
  EXPECT_THROW(ReferenceApplyIntra(core::IntraHeuristic::kOfu, seq, p, 1),
               std::logic_error);
}

// ---- reused workspace ----------------------------------------------------

/// The registered strategies that build their placement constructively
/// (everything but the searches): the ones a workspace serves.
std::vector<std::string> ConstructiveStrategies() {
  std::vector<std::string> names;
  for (const std::string& name : core::StrategyRegistry::Global().Names()) {
    const auto strategy = core::StrategyRegistry::Global().Find(name);
    if (!strategy->Describe().search_based) names.push_back(name);
  }
  return names;
}

TEST(ReseedEquivalence, ReusedWorkspaceMatchesFreshCalls) {
  // One workspace serves all 15 constructive strategies, and the
  // workspace forms of the building blocks, over a seeded series of
  // sequences whose variable space, length and DBC count grow and shrink
  // from one call to the next, with idle variables, scrambled names and
  // both tight and unbounded capacity. Every result must equal a fresh
  // call's: nothing a call leaves in the workspace may leak into the
  // next.
  const std::vector<std::string> names = ConstructiveStrategies();
  ASSERT_EQ(names.size(), 15u);
  constexpr std::array<std::uint32_t, 5> kDbcCounts = {1, 2, 3, 5, 16};
  core::PlacementWorkspace workspace;
  util::Rng rng(0x5EED000A);
  for (int trial = 0; trial < 90; ++trial) {
    SCOPED_TRACE(trial);
    const bool adaptive_shape = trial % 6 == 0;
    const std::size_t n = adaptive_shape ? 1280 : rng.NextBelow(220);
    const std::size_t active =
        adaptive_shape ? 8 + rng.NextBelow(80) : rng.NextBelow(n + 1);
    const std::size_t length =
        adaptive_shape ? 256 : rng.NextBelow(active == 0 ? 1 : 700);
    const trace::AccessSequence seq = RandomSession(n, active, length, rng);
    const std::uint32_t num_dbcs =
        adaptive_shape ? 16 : kDbcCounts[rng.NextBelow(kDbcCounts.size())];
    auto capacity = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, (n + num_dbcs - 1) / num_dbcs) +
        rng.NextBelow(3));
    if (rng.NextBool(0.25)) capacity = core::kUnboundedCapacity;

    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      const auto strategy = core::StrategyRegistry::Global().Find(name);
      core::PlacementRequest fresh;
      fresh.sequence = &seq;
      fresh.num_dbcs = num_dbcs;
      fresh.capacity = capacity;
      core::PlacementRequest reused = fresh;
      reused.workspace = &workspace;
      const core::PlacementResult want = strategy->Run(fresh);
      const core::PlacementResult got = strategy->Run(reused);
      got.placement.CheckInvariants();
      EXPECT_EQ(Lists(got.placement), Lists(want.placement));
      EXPECT_EQ(got.cost, want.cost);
    }

    const std::vector<trace::VariableStats> stats =
        trace::ComputeVariableStats(seq);
    trace::ComputeVariableStats(seq, workspace.stats, workspace.first_use);
    EXPECT_EQ(workspace.stats, stats);
    const std::span<const VariableId> disjoint =
        core::SelectDisjointVariables(stats, workspace);
    EXPECT_EQ(std::vector<VariableId>(disjoint.begin(), disjoint.end()),
              core::SelectDisjointVariables(stats));
    const std::span<const VariableId> order =
        core::SortByFrequencyDescending(stats, seq, workspace);
    EXPECT_EQ(std::vector<VariableId>(order.begin(), order.end()),
              core::SortByFrequencyDescending(stats, seq));
    const core::Placement dealt = core::DistributeAfd(
        seq, num_dbcs, capacity, {core::IntraHeuristic::kNone});
    for (const core::IntraHeuristic heuristic : kIntraHeuristics) {
      core::Placement got = dealt;
      core::Placement want = dealt;
      core::ApplyIntra(heuristic, seq, got, 0, num_dbcs, workspace);
      core::ApplyIntra(heuristic, seq, want, 0, num_dbcs);
      EXPECT_EQ(Lists(got), Lists(want)) << core::ToString(heuristic);
    }
  }
}

TEST(ReseedEquivalence, EstimateMatchesPlanAndReusedPlansMatchFreshOnes) {
  // EstimateMigration decides on the plan's (moves, estimated shifts)
  // without building it; a plan rebuilt in place must equal a fresh one
  // whatever the previous plan held.
  util::Rng rng(0x5EED000B);
  online::MigrationPlan reused;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t n = rng.NextBelow(300);
    std::vector<bool> placed(n);
    for (std::size_t v = 0; v < n; ++v) placed[v] = rng.NextBool(0.85);
    const auto from_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(16));
    auto to_dbcs = from_dbcs;
    if (rng.NextBool(0.2)) {
      to_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(16));
    }
    const auto roomy = [&](std::uint32_t dbcs) {
      return rng.NextBool(0.3) ? core::kUnboundedCapacity
                               : static_cast<std::uint32_t>(
                                     n / dbcs + 1 + rng.NextBelow(4));
    };
    const core::Placement from = RandomPlacement(placed, from_dbcs,
                                                 roomy(from_dbcs), rng);
    const core::Placement to =
        to_dbcs == from_dbcs && rng.NextBool(0.5)
            ? Perturb(from, rng)
            : RandomPlacement(placed, to_dbcs, roomy(to_dbcs), rng);
    const online::MigrationPlan plan = online::PlanMigration(from, to);
    const online::MigrationEstimate estimate =
        online::EstimateMigration(from, to);
    EXPECT_EQ(estimate.moved, plan.moves.size());
    EXPECT_EQ(estimate.estimated_shifts, plan.estimated_shifts);
    online::PlanMigration(from, to, reused);
    ExpectSamePlan(reused, plan);
    ExpectSamePlan(plan, ReferencePlanMigration(from, to));
  }
  // The estimate rejects exactly what the plan rejects.
  const core::Placement a = core::Placement::FromLists({{0, 1}}, 2);
  const core::Placement b = core::Placement::FromLists({{0, 1, 2}}, 3);
  const core::Placement only0 = core::Placement::FromLists({{0}}, 2);
  const core::Placement only1 = core::Placement::FromLists({{}, {1}}, 2);
  EXPECT_THROW((void)online::EstimateMigration(a, b), std::invalid_argument);
  EXPECT_THROW((void)online::EstimateMigration(only0, only1),
               std::invalid_argument);
  EXPECT_THROW((void)online::EstimateMigration(only0, a),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtmp
