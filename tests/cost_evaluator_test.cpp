#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_dma.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "core/strategy_registry.h"
#include "offsetstone/suite.h"
#include "rtm/config.h"
#include "sim/simulator.h"
#include "trace/access_sequence.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;
using trace::VariableId;

AccessSequence RandomSequence(std::size_t num_variables, std::size_t length,
                              util::Rng& rng) {
  AccessSequence seq;
  for (std::size_t v = 0; v < num_variables; ++v) {
    seq.AddVariable(std::to_string(v));
  }
  for (std::size_t i = 0; i < length; ++i) {
    seq.Append(static_cast<VariableId>(rng.NextBelow(num_variables)));
  }
  return seq;
}

std::vector<CostOptions> OptionMatrix(std::uint32_t domains) {
  std::vector<CostOptions> matrix;
  for (const auto alignment : {rtm::InitialAlignment::kFirstAccess,
                               rtm::InitialAlignment::kZero}) {
    CostOptions single;
    single.initial_alignment = alignment;
    matrix.push_back(single);

    CostOptions offset_port;
    offset_port.initial_alignment = alignment;
    offset_port.port_offsets = {domains / 2};
    offset_port.domains_per_dbc = domains;
    matrix.push_back(offset_port);

    CostOptions two_ports;
    two_ports.initial_alignment = alignment;
    two_ports.port_offsets = {0, domains - 1};
    two_ports.domains_per_dbc = domains;
    matrix.push_back(two_ports);
  }
  return matrix;
}

/// One random move of a variable to the end of a DBC with room (its own
/// DBC included: a rotation to its end), applied to BOTH the evaluator and
/// a shadow placement kept with plain Placement calls.
void RandomEdit(CostEvaluator& evaluator, Placement& shadow, util::Rng& rng) {
  const std::uint32_t q = shadow.num_dbcs();
  const auto v =
      static_cast<VariableId>(rng.NextBelow(shadow.num_variables()));
  std::vector<std::uint32_t> targets;
  const std::uint32_t limit = evaluator.options().domains_per_dbc == 0
                                  ? kUnboundedCapacity
                                  : evaluator.options().domains_per_dbc;
  for (std::uint32_t d = 0; d < q; ++d) {
    const bool same = shadow.SlotOf(v).dbc == d;
    if (same || (shadow.FreeIn(d) > 0 && shadow.dbc(d).size() < limit)) {
      targets.push_back(d);
    }
  }
  const std::uint32_t target = rng.Pick(targets);
  evaluator.ApplyMove(v, target);
  shadow.MoveToEnd(v, target);
}

TEST(CostEvaluator, EvaluateMatchesShiftCostOnRandomInputs) {
  util::Rng rng(0xC0FFEE);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.NextBelow(12);
    const auto seq = RandomSequence(n, rng.NextBelow(80), rng);
    const auto q = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    for (const CostOptions& options : OptionMatrix(/*domains=*/16)) {
      CostEvaluator evaluator(seq, options);
      for (int sample = 0; sample < 4; ++sample) {
        const Placement p =
            RandomPlacement(n, q, /*capacity=*/16, rng);
        EXPECT_EQ(evaluator.Evaluate(p), ShiftCost(seq, p, options));
        EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, p, options));
      }
    }
  }
}

TEST(CostEvaluator, ScoreSlotsMatchesShiftCostAndLeavesBindingAlone) {
  util::Rng rng(0x5C0E);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.NextBelow(12);
    const auto seq = RandomSequence(n, rng.NextBelow(80), rng);
    const auto q = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    for (const CostOptions& options : OptionMatrix(/*domains=*/16)) {
      CostEvaluator evaluator(seq, options);
      RandomDraw draw;
      DrawRandomSlots(n, q, /*capacity=*/16, rng, draw);
      if (!evaluator.incremental()) {
        EXPECT_THROW((void)evaluator.ScoreSlots(draw.slots, draw.fill),
                     std::logic_error);
        continue;
      }
      const Placement bound = RandomPlacement(n, q, 16, rng);
      const std::uint64_t bound_cost = evaluator.Evaluate(bound);
      EXPECT_EQ(evaluator.ScoreSlots(draw.slots, draw.fill),
                ShiftCost(seq, draw.Build(), options));
      EXPECT_EQ(evaluator.Cost(), bound_cost);
      EXPECT_EQ(evaluator.placement(), bound);
    }
  }
}

TEST(CostEvaluator, ScoreSlotsValidatesLikeShiftCost) {
  const auto seq = AccessSequence::FromCompactString("abcab");
  CostOptions options;
  options.domains_per_dbc = 2;
  CostEvaluator evaluator(seq, options);
  const std::vector<Slot> deep = {{0, 0}, {0, 1}, {0, 2}};
  const std::vector<std::uint32_t> deep_fill = {3};
  EXPECT_THROW((void)evaluator.ScoreSlots(deep, deep_fill),
               std::invalid_argument);
  const std::vector<Slot> fits = {{0, 0}, {0, 1}, {1, 0}};
  const std::vector<std::uint32_t> fits_fill = {2, 1};
  EXPECT_EQ(evaluator.ScoreSlots(fits, fits_fill),
            ShiftCost(seq, Placement::FromLists({{0, 1}, {2}}, 3), options));
  const std::vector<Slot> missing = {{0, 0}, {0, 1}};
  EXPECT_THROW((void)evaluator.ScoreSlots(missing, fits_fill),
               std::invalid_argument);
}

TEST(CostEvaluator, ScoreSlotsOnRepeatHeavySequences) {
  // ScoreSlots walks only the first access of each run of one variable;
  // the skipped repeats must cost nothing under every alignment. "bbbaaa"
  // and "ccaaabbb" open each DBC with a run.
  for (const char* text : {"aaaa", "aabbaab", "a", "", "bbbaaa", "ccaaabbb",
                           "aaabbbaaaccc"}) {
    const auto seq = AccessSequence::FromCompactString(text);
    const std::size_t n = seq.num_variables();
    util::Rng rng(0x2E9EA7);
    for (const CostOptions& options : OptionMatrix(/*domains=*/8)) {
      CostEvaluator evaluator(seq, options);
      if (!evaluator.incremental()) continue;
      SCOPED_TRACE(std::string(text) + " zero=" +
                   (options.initial_alignment == rtm::InitialAlignment::kZero
                        ? "1"
                        : "0"));
      for (const std::uint32_t q : {1u, 2u, 3u}) {
        const Placement bound = RandomPlacement(n, q, /*capacity=*/8, rng);
        const std::uint64_t bound_cost = evaluator.Evaluate(bound);
        for (int sample = 0; sample < 8; ++sample) {
          RandomDraw draw;
          DrawRandomSlots(n, q, /*capacity=*/8, rng, draw);
          const std::uint64_t expected =
              ShiftCost(seq, draw.Build(), options);
          EXPECT_EQ(evaluator.ScoreSlots(draw.slots, draw.fill), expected);
          EXPECT_EQ(evaluator.ScoreSlots(draw.slots, draw.fill), expected);
        }
        EXPECT_EQ(evaluator.Cost(), bound_cost);
        EXPECT_EQ(evaluator.placement(), bound);
      }
    }
  }
}

TEST(CostEvaluator, IncrementalChainsMatchShiftCost) {
  util::Rng rng(0xABCDEF);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 2 + rng.NextBelow(10);
    const auto seq = RandomSequence(n, 10 + rng.NextBelow(60), rng);
    const auto q = static_cast<std::uint32_t>(2 + rng.NextBelow(3));
    for (const CostOptions& options : OptionMatrix(16)) {
      CostEvaluator evaluator(seq, options);
      Placement shadow = RandomPlacement(n, q, 16, rng);
      evaluator.Bind(shadow);
      for (int step = 0; step < 12; ++step) {
        RandomEdit(evaluator, shadow, rng);
        ASSERT_EQ(evaluator.placement(), shadow);
        ASSERT_EQ(evaluator.Cost(), ShiftCost(seq, shadow, options))
            << "round " << round << " step " << step;
      }
    }
  }
}

TEST(CostEvaluator, UndoRewindsWholeChains) {
  util::Rng rng(0x5EED);
  for (int round = 0; round < 15; ++round) {
    const std::size_t n = 2 + rng.NextBelow(8);
    const auto seq = RandomSequence(n, 10 + rng.NextBelow(50), rng);
    for (const CostOptions& options : OptionMatrix(16)) {
      CostEvaluator evaluator(seq, options);
      Placement shadow = RandomPlacement(n, 3, 16, rng);
      evaluator.Bind(shadow);
      const Placement original = evaluator.placement();
      const std::uint64_t original_cost = evaluator.Cost();
      for (int step = 0; step < 8; ++step) {
        RandomEdit(evaluator, shadow, rng);
      }
      while (evaluator.undo_depth() > 0) {
        evaluator.Undo();
        ASSERT_EQ(evaluator.Cost(),
                  ShiftCost(seq, evaluator.placement(), options));
      }
      EXPECT_EQ(evaluator.placement(), original);
      EXPECT_EQ(evaluator.Cost(), original_cost);
    }
  }
}

/// Trial scoring must return exactly the full ShiftCost of the moved
/// placement — the cost ApplyMove would produce — and must not disturb
/// the bound state. Runs `steps` random moves from `shadow`.
void ExpectPeeksPredictApplies(const AccessSequence& seq,
                               const CostOptions& options, Placement shadow,
                               int steps, util::Rng& rng) {
  const std::uint32_t q = shadow.num_dbcs();
  CostEvaluator evaluator(seq, options);
  evaluator.Bind(shadow);
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t before = evaluator.Cost();
    const auto v =
        static_cast<VariableId>(rng.NextBelow(shadow.num_variables()));
    const auto d = static_cast<std::uint32_t>(rng.NextBelow(q));
    const std::uint64_t peeked = evaluator.PeekMove(v, d);
    ASSERT_EQ(evaluator.Cost(), before);
    ASSERT_EQ(evaluator.placement(), shadow);
    ASSERT_EQ(evaluator.ApplyMove(v, d), peeked);
    shadow.MoveToEnd(v, d);
    ASSERT_EQ(peeked, ShiftCost(seq, shadow, options)) << "step " << step;
    ASSERT_EQ(evaluator.Cost(), peeked);
  }
}

TEST(CostEvaluator, PeeksPredictApplyExactly) {
  util::Rng rng(0xFEED);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 2 + rng.NextBelow(10);
    const auto seq = RandomSequence(n, 10 + rng.NextBelow(80), rng);
    const auto q = static_cast<std::uint32_t>(2 + rng.NextBelow(3));
    for (const CostOptions& options : OptionMatrix(16)) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      ExpectPeeksPredictApplies(seq, options, RandomPlacement(n, q, 16, rng),
                                10, rng);
    }
  }
  // Real OffsetStone-lite sequences: the largest of every benchmark, from
  // the 8-DBC DMA-SR placement the GA would start mutating.
  for (const auto& profile : offsetstone::SuiteProfiles()) {
    const auto benchmark = offsetstone::Generate(profile, 0);
    const AccessSequence* seq = &benchmark.sequences.front();
    for (const auto& candidate : benchmark.sequences) {
      if (candidate.size() > seq->size()) seq = &candidate;
    }
    if (seq->num_variables() < 2) continue;
    SCOPED_TRACE(benchmark.name);
    const Placement base =
        DistributeDma(*seq, 8, kUnboundedCapacity,
                      {IntraHeuristic::kShiftsReduce})
            .placement;
    ExpectPeeksPredictApplies(*seq, CostOptions{}, base, 40, rng);
  }
}

TEST(CostEvaluator, PeeksValidateLikeApplies) {
  const auto seq = AccessSequence::FromCompactString("abcabc");
  CostEvaluator evaluator(seq, {});
  evaluator.Bind(Placement::FromLists({{0, 1}, {2}}, 3, 2));
  EXPECT_THROW((void)evaluator.PeekMove(0, 7), std::invalid_argument);
  EXPECT_THROW((void)evaluator.PeekMove(2, 0), std::invalid_argument);  // full
}

TEST(CostEvaluator, EvaluateDiffPathTracksGradualMutation) {
  // Exercises the splice-based diff path: consecutive placements differ by
  // one edit, exactly the GA's evaluation pattern.
  util::Rng rng(7);
  const auto seq = RandomSequence(10, 120, rng);
  const CostOptions options;  // single port, first access free
  CostEvaluator evaluator(seq, options);
  Placement p = RandomPlacement(10, 4, 16, rng);
  for (int step = 0; step < 60; ++step) {
    const auto v = static_cast<VariableId>(rng.NextBelow(10));
    const auto d = static_cast<std::uint32_t>(rng.NextBelow(4));
    p.MoveToEnd(v, d);
    ASSERT_EQ(evaluator.Evaluate(p), ShiftCost(seq, p, options)) << step;
  }
}

TEST(CostEvaluator, ArenaRebindReusesWarmStorage) {
  // The edge arenas grow while the first Bind fills them, then go quiet:
  // rebinds of same-shaped placements clear-but-keep-capacity and refill
  // without a single reallocation (the arena_growths() invariant behind
  // the mutation-scoring rate).
  util::Rng rng(2026);
  const auto seq = RandomSequence(24, 4000, rng);
  CostEvaluator evaluator(seq, CostOptions{});
  EXPECT_EQ(evaluator.arena_growths(), 0u);

  const Placement p = RandomPlacement(24, 4, 16, rng);
  evaluator.Bind(p);
  const std::size_t cold = evaluator.arena_growths();
  EXPECT_GT(cold, 0u);  // the first Bind had to allocate

  for (int round = 0; round < 5; ++round) {
    evaluator.Bind(p);
    EXPECT_EQ(evaluator.Evaluate(p), evaluator.Cost());
  }
  EXPECT_EQ(evaluator.arena_growths(), cold);

  // Reordering inside DBCs keeps the partition — hence the edge sets —
  // identical, so rebinding a permuted placement is growth-free too.
  Placement permuted = p;
  for (std::uint32_t d = 0; d < permuted.num_dbcs(); ++d) {
    std::vector<VariableId> order = permuted.dbc(d);
    std::reverse(order.begin(), order.end());
    permuted.Reorder(d, order);
  }
  evaluator.Bind(permuted);
  EXPECT_EQ(evaluator.arena_growths(), cold);
}

TEST(CostEvaluator, SinglePortFastPathReportsIncremental) {
  const auto seq = AccessSequence::FromCompactString("abab");
  CostOptions single;
  EXPECT_TRUE(CostEvaluator(seq, single).incremental());
  CostOptions dual;
  dual.port_offsets = {0, 3};
  EXPECT_FALSE(CostEvaluator(seq, dual).incremental());
}

TEST(CostEvaluator, AgreesWithCostModelOnDomainValidation) {
  const auto seq = AccessSequence::FromCompactString("abc");
  const auto deep = Placement::FromLists({{0, 1, 2}}, 3);
  CostOptions options;
  options.domains_per_dbc = 2;  // three variables cannot fit
  EXPECT_THROW((void)ShiftCost(seq, deep, options), std::invalid_argument);
  CostEvaluator evaluator(seq, options);
  EXPECT_THROW(evaluator.Bind(deep), std::invalid_argument);
  EXPECT_THROW((void)evaluator.Evaluate(deep), std::invalid_argument);

  // A move that would overflow the DBC depth is rejected up front.
  CostOptions roomy;
  roomy.domains_per_dbc = 2;
  const auto tight = Placement::FromLists({{0, 1}, {2}}, 3);
  CostEvaluator bounded(seq, roomy);
  bounded.Bind(tight);
  EXPECT_THROW((void)bounded.ApplyMove(2, 0), std::invalid_argument);
  EXPECT_EQ(bounded.undo_depth(), 0u);
  EXPECT_EQ(bounded.Cost(), ShiftCost(seq, tight, roomy));
}

TEST(CostEvaluator, ThrowsLikeShiftCostOnUnplacedVariables) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const auto partial = Placement::FromLists({{0}}, 2);  // b unplaced
  CostEvaluator evaluator(seq, {});
  EXPECT_THROW((void)evaluator.Evaluate(partial), std::logic_error);
}

TEST(CostEvaluator, RequiresBindingAndNonEmptyUndoStack) {
  const auto seq = AccessSequence::FromCompactString("ab");
  CostEvaluator evaluator(seq, {});
  EXPECT_THROW((void)evaluator.Cost(), std::logic_error);
  EXPECT_THROW((void)evaluator.placement(), std::logic_error);
  EXPECT_THROW(evaluator.Undo(), std::logic_error);
  evaluator.Bind(Placement::FromLists({{0, 1}}, 2));
  EXPECT_THROW(evaluator.Undo(), std::logic_error);
  CostOptions no_ports;
  no_ports.port_offsets = {};
  EXPECT_THROW(CostEvaluator(seq, no_ports), std::invalid_argument);
}

TEST(CostEvaluator, HandlesPlacementsWithMoreVariablesThanTheSequence) {
  // ShiftCost accepts placements that declare (and place) variables the
  // sequence never accesses; the evaluator must too. Regression: the
  // per-variable scratch tables used to be sized to the sequence only.
  const auto seq = AccessSequence::FromCompactString("abab");  // 2 variables
  CostEvaluator evaluator(seq, {});
  Placement p = Placement::FromLists({{0, 3, 1, 4}, {2}}, 5);
  evaluator.Bind(p);
  EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, p));
  // Rotating an accessed variable to its own DBC's end.
  EXPECT_EQ(evaluator.PeekMove(0, 0), evaluator.ApplyMove(0, 0));
  p.MoveToEnd(0, 0);
  EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, p));
  // Moving an unaccessed variable shifts the offsets of accessed ones.
  EXPECT_EQ(evaluator.PeekMove(3, 1), evaluator.ApplyMove(3, 1));
  p.MoveToEnd(3, 1);
  EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, p));
  EXPECT_EQ(evaluator.PeekMove(4, 1), evaluator.ApplyMove(4, 1));
  p.MoveToEnd(4, 1);
  EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, p));
  evaluator.Undo();
  evaluator.Undo();
  evaluator.Undo();
  EXPECT_EQ(evaluator.Cost(),
            ShiftCost(seq, Placement::FromLists({{0, 3, 1, 4}, {2}}, 5)));
  // Evaluate's diff path with an extra-variable move.
  Placement q = Placement::FromLists({{0, 3, 1}, {2, 4}}, 5);
  EXPECT_EQ(evaluator.Evaluate(q), ShiftCost(seq, q));
}

TEST(CostEvaluator, ApplyReturnsTheNewTotal) {
  const auto seq = AccessSequence::FromCompactString("abcabcabc");
  CostEvaluator evaluator(seq, {});
  const Placement original = Placement::FromLists({{0, 1, 2}}, 3, 3);
  Placement p = original;
  evaluator.Bind(p);
  const std::uint64_t rotated = evaluator.ApplyMove(0, 0);
  p.MoveToEnd(0, 0);
  EXPECT_EQ(rotated, ShiftCost(seq, p));
  evaluator.Undo();
  EXPECT_EQ(evaluator.placement(), original);
  EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, original));
}

TEST(CostEvaluator, UndoRestoresBothRebuiltDbcs) {
  // "abacad" x 3: a has 9 of the 18 accesses. Moving a from {a, b} to
  // {c, d} leaves a source chain of 3 and makes a target chain of 15;
  // 3 * 9 exceeds both, so ApplyMove rebuilds both DBCs' edges wholesale
  // (the snapshot path) instead of splicing them, and Undo must swap
  // both snapshots back in.
  const auto seq = AccessSequence::FromCompactString("abacadabacadabacad");
  const Placement original = Placement::FromLists({{0, 1}, {2, 3}}, 4);
  Placement moved = original;
  moved.MoveToEnd(0, 1);
  for (const auto alignment : {rtm::InitialAlignment::kFirstAccess,
                               rtm::InitialAlignment::kZero}) {
    CostOptions options;
    options.initial_alignment = alignment;
    CostEvaluator evaluator(seq, options);
    evaluator.Bind(original);
    const std::uint64_t expected = ShiftCost(seq, moved, options);
    EXPECT_EQ(evaluator.PeekMove(0, 1), expected);
    EXPECT_EQ(evaluator.ApplyMove(0, 1), expected);
    EXPECT_EQ(evaluator.placement(), moved);
    evaluator.Undo();
    EXPECT_EQ(evaluator.Cost(), ShiftCost(seq, original, options));
    EXPECT_EQ(evaluator.placement(), original);
    // The restored edges must price exactly. Rotating a variable to its
    // own DBC's end re-prices every edge of that DBC, so one rotation per
    // variable reads both swapped-back snapshots in full.
    EXPECT_EQ(evaluator.PeekMove(0, 1), expected);
    for (VariableId v = 0; v < 4; ++v) {
      const std::uint32_t home = original.SlotOf(v).dbc;
      Placement rotated = original;
      rotated.MoveToEnd(v, home);
      EXPECT_EQ(evaluator.PeekMove(v, home), ShiftCost(seq, rotated, options))
          << "variable " << v;
    }
  }
}

// ---- cross-engine pin over the workload registry ---------------------------
//
// For every generator/synthetic workload crossed with a sampled strategy
// set, the three shift-count engines must agree on every sequence: the
// flat analytic ShiftCost, the incremental CostEvaluator::Evaluate, and
// the device-level sim::Simulate replay. The agreed values additionally
// fold into one fingerprint pinned below: a behavioural change in any
// engine, any of the new workload generators, or any sampled heuristic
// fails this test by value, not just by crash.
TEST(CrossEngine, WorkloadsAgreeAcrossEnginesAndMatchPinnedFingerprint) {
  // The 14 non-suite workloads (the suite itself is pinned by the bench
  // goldens) x four constructive heuristics spanning both inter policies
  // and three intra heuristics.
  const char* kWorkloads[] = {
      "gen-uniform",  "gen-zipf",    "gen-phased",   "gen-markov",
      "gen-loopnest", "gen-sequential", "stencil",   "gemm-tiled",
      "hash-join",    "bfs-frontier", "kv-churn",    "fft-butterfly",
      "pointer-chase", "stream-scan"};
  const char* kStrategies[] = {"afd-ofu", "dma-chen", "dma-sr", "dma2-sr"};

  std::uint64_t fingerprint = 0xCBF29CE484222325ULL;
  for (const char* workload_name : kWorkloads) {
    const auto workload =
        workloads::WorkloadRegistry::Global().Find(workload_name);
    ASSERT_NE(workload, nullptr) << workload_name;
    const auto benchmark =
        workload->Generate({/*seed=*/42, /*scale=*/0.5});
    for (const unsigned dbcs : {4u, 16u}) {
      rtm::RtmConfig config = rtm::RtmConfig::Paper(dbcs);
      for (const char* strategy_name : kStrategies) {
        const auto strategy =
            StrategyRegistry::Global().Find(strategy_name);
        ASSERT_NE(strategy, nullptr) << strategy_name;
        for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
          const trace::AccessSequence& seq = benchmark.sequences[s];
          rtm::RtmConfig cfg = config;
          if (seq.num_variables() > cfg.word_capacity()) {
            cfg.domains_per_dbc = static_cast<unsigned>(
                (seq.num_variables() + dbcs - 1) / dbcs);
          }
          PlacementRequest request;
          request.sequence = &seq;
          request.num_dbcs = cfg.total_dbcs();
          request.capacity = cfg.domains_per_dbc;
          request.options.cost.initial_alignment = cfg.initial_alignment;
          request.compute_cost = false;
          const Placement placement = strategy->Run(request).placement;

          CostOptions cost_options;
          cost_options.initial_alignment = cfg.initial_alignment;
          const std::uint64_t analytic =
              ShiftCost(seq, placement, cost_options);
          CostEvaluator evaluator(seq, cost_options);
          const std::uint64_t incremental = evaluator.Evaluate(placement);
          const std::uint64_t simulated =
              sim::Simulate(seq, placement, cfg).stats.shifts;
          ASSERT_EQ(analytic, incremental)
              << workload_name << " x " << strategy_name << " @ " << dbcs
              << " DBCs, sequence " << s;
          ASSERT_EQ(analytic, simulated)
              << workload_name << " x " << strategy_name << " @ " << dbcs
              << " DBCs, sequence " << s;
          fingerprint = (fingerprint ^ analytic) * 0x100000001B3ULL;
        }
      }
    }
  }
  // Pinned at seed 42, scale 0.5. An intentional generator or heuristic
  // change moves this value: re-pin it from the failure message and
  // call the change out in the PR.
  EXPECT_EQ(fingerprint, 0xE7AF507FBF5FE9C2ULL);
}

}  // namespace
}  // namespace rtmp::core
