#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
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

TEST(CostModel, SingleDbcWalk) {
  const auto seq = AccessSequence::FromCompactString("abcba");
  // a=0, b=1, c=2 at offsets 0,1,2.
  const auto p = Placement::FromLists({{0, 1, 2}}, 3);
  // free, 1, 1, 1, 1 = 4
  EXPECT_EQ(ShiftCost(seq, p), 4u);
}

TEST(CostModel, FirstAccessFreePerDbc) {
  const auto seq = AccessSequence::FromCompactString("ab");
  // Both variables in separate DBCs at offset 3 via padding variables.
  const auto p = Placement::FromLists({{2, 3, 0}, {4, 5, 1}}, 6);
  EXPECT_EQ(ShiftCost(seq, p), 0u);  // each DBC's first access is free
}

TEST(CostModel, ZeroAlignmentPaysInitialDistance) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const auto p = Placement::FromLists({{2, 3, 0}, {4, 5, 1}}, 6);
  CostOptions options;
  options.initial_alignment = rtm::InitialAlignment::kZero;
  EXPECT_EQ(ShiftCost(seq, p, options), 4u);  // offset 2 + offset 2
}

TEST(CostModel, PerDbcDecompositionSumsToTotal) {
  const auto seq = AccessSequence::FromCompactString("abcabcabc");
  const auto p = Placement::FromLists({{0, 2}, {1}}, 3);
  const auto per_dbc = PerDbcShiftCost(seq, p);
  std::uint64_t sum = 0;
  for (const auto c : per_dbc) sum += c;
  EXPECT_EQ(sum, ShiftCost(seq, p));
}

TEST(CostModel, InterleavedAccessesDoNotDisturbOtherDbcs) {
  const auto seq = AccessSequence::FromCompactString("axbxaxbx");
  // a,b in DBC0 (offsets 0,1); x in DBC1.
  const auto p = Placement::FromLists({{0, 2}, {1}}, 3);
  // DBC0 walk: a(free) b(1) a(1) b(1) = 3; DBC1: all self-accesses = 0.
  EXPECT_EQ(ShiftCost(seq, p), 3u);
}

TEST(CostModel, SelfAccessesAreFree) {
  const auto seq = AccessSequence::FromCompactString("aaaa");
  const auto p = Placement::FromLists({{1, 0}}, 2);
  EXPECT_EQ(ShiftCost(seq, p), 0u);
}

TEST(CostModel, SinglePortOffsetDoesNotChangeInterAccessCost) {
  const auto seq = AccessSequence::FromCompactString("abab");
  const auto p = Placement::FromLists({{0, 1}}, 2);
  CostOptions at_zero;
  at_zero.port_offsets = {0};
  CostOptions at_five;
  at_five.port_offsets = {5};
  at_five.domains_per_dbc = 8;
  EXPECT_EQ(ShiftCost(seq, p, at_zero), ShiftCost(seq, p, at_five));
}

TEST(CostModel, SinglePortOffsetMattersOnlyForPaidFirstAccess) {
  const auto seq = AccessSequence::FromCompactString("a");
  const auto p = Placement::FromLists({{1, 0}}, 2);  // a at offset 1
  CostOptions options;
  options.initial_alignment = rtm::InitialAlignment::kZero;
  options.port_offsets = {3};
  options.domains_per_dbc = 4;
  // Alignment 0, target = 1 - 3 = -2 -> 2 shifts.
  EXPECT_EQ(ShiftCost(seq, p, options), 2u);
}

TEST(CostModel, TwoPortsHalveLongJumps) {
  // Variables at offsets 0 and 9; ports at 0 and 9.
  const auto seq = AccessSequence::FromCompactString("abababab");
  std::vector<std::vector<VariableId>> lists{{0, 2, 3, 4, 5, 6, 7, 8, 9, 1}};
  const auto p = Placement::FromLists(lists, 10);
  CostOptions one_port;
  one_port.domains_per_dbc = 10;
  CostOptions two_ports;
  two_ports.port_offsets = {0, 9};
  two_ports.domains_per_dbc = 10;
  const auto single = ShiftCost(seq, p, one_port);
  const auto dual = ShiftCost(seq, p, two_ports);
  EXPECT_EQ(single, 7u * 9u);  // every hop pays 9
  EXPECT_EQ(dual, 0u);         // each variable has its own port
}

TEST(CostModel, MultiPortNeverWorseThanSinglePort) {
  const auto seq =
      AccessSequence::FromCompactString("abcdefghabcdefghhgfedcba");
  const auto p =
      Placement::FromLists({{0, 1, 2, 3, 4, 5, 6, 7}}, 8);
  CostOptions one;
  one.domains_per_dbc = 8;
  CostOptions two;
  two.port_offsets = {0, 4};
  two.domains_per_dbc = 8;
  EXPECT_LE(ShiftCost(seq, p, two), ShiftCost(seq, p, one));
}

/// Multi-port replay written from the definition: each DBC remembers
/// which of its domains faces each port; an access costs the least
/// distance any port has to shift to reach it (the lowest port on ties),
/// and the first access of a DBC is free under kFirstAccess or starts
/// from the domains at the ports' own offsets under kZero.
std::uint64_t MinOverPortsReplay(const AccessSequence& seq,
                                 const Placement& p,
                                 const std::vector<std::uint32_t>& ports,
                                 bool first_pays) {
  // facing[d][i]: the domain under port i of DBC d, once known.
  std::vector<std::vector<std::int64_t>> facing(p.num_dbcs());
  if (first_pays) {
    for (auto& at : facing) at.assign(ports.begin(), ports.end());
  }
  std::uint64_t total = 0;
  for (const trace::Access& access : seq.accesses()) {
    const Slot slot = p.SlotOf(access.variable);
    const auto x = static_cast<std::int64_t>(slot.offset);
    std::vector<std::int64_t>& at = facing[slot.dbc];
    std::int64_t shift = 0;  // how far the track moves, signed
    if (!at.empty()) {
      std::vector<std::uint64_t> cost;
      for (const std::int64_t domain : at) {
        cost.push_back(static_cast<std::uint64_t>(std::llabs(x - domain)));
      }
      const auto port = static_cast<std::size_t>(
          std::min_element(cost.begin(), cost.end()) - cost.begin());
      shift = x - at[port];
      total += cost[port];
    } else {
      // Port 0 takes the free first access.
      at.assign(ports.begin(), ports.end());
      shift = x - ports.front();
    }
    for (std::int64_t& domain : at) domain += shift;
  }
  return total;
}

TEST(CostModel, MultiPortMatchesAMinOverPortsReplay) {
  util::Rng rng(0x9027);
  const std::vector<std::vector<std::uint32_t>> port_sets = {
      {0}, {0, 7}, {3, 4}, {1, 5, 9}, {11, 2}, {0, 4, 8, 12}};
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 2 + rng.NextBelow(15);  // fits one 16-deep DBC
    AccessSequence seq;
    for (std::size_t v = 0; v < n; ++v) seq.AddVariable(std::to_string(v));
    const std::size_t length = rng.NextBelow(120);
    for (std::size_t i = 0; i < length; ++i) {
      seq.Append(static_cast<VariableId>(rng.NextBelow(n)));
    }
    const auto q = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    const Placement p = RandomPlacement(n, q, /*capacity=*/16, rng);
    for (const auto& ports : port_sets) {
      for (const bool first_pays : {false, true}) {
        CostOptions options;
        options.port_offsets = ports;
        options.domains_per_dbc = 16;
        if (first_pays) {
          options.initial_alignment = rtm::InitialAlignment::kZero;
        }
        const std::uint64_t expected =
            MinOverPortsReplay(seq, p, ports, first_pays);
        ASSERT_EQ(ShiftCost(seq, p, options), expected)
            << "round " << round << " ports " << ports.size();
        std::uint64_t per_dbc = 0;
        for (const std::uint64_t c : PerDbcShiftCost(seq, p, options)) {
          per_dbc += c;
        }
        EXPECT_EQ(per_dbc, expected);
      }
    }
  }
}

// ablation_dma's part D prices fixed gsm placements at 1, 2 and 4 evenly
// spread ports: the one consumer of multi-port pricing. Pinned values.
TEST(CostModel, AblationDmaPortCountRowsArePinned) {
  const auto suite = offsetstone::GenerateSuite();
  const auto gsm = std::find_if(
      suite.begin(), suite.end(),
      [](const offsetstone::Benchmark& b) { return b.name == "gsm"; });
  ASSERT_NE(gsm, suite.end());
  std::size_t longest = 0;
  for (std::size_t i = 0; i < gsm->sequences.size(); ++i) {
    if (gsm->sequences[i].size() > gsm->sequences[longest].size()) {
      longest = i;
    }
  }
  const AccessSequence& seq = gsm->sequences[longest];
  constexpr std::uint32_t kDbcs = 8;
  const Placement afd = DistributeAfd(seq, kDbcs, kUnboundedCapacity,
                                      {IntraHeuristic::kOfu});
  const Placement dma = DistributeDma(seq, kDbcs, kUnboundedCapacity,
                                      {IntraHeuristic::kShiftsReduce})
                            .placement;
  std::uint32_t depth = 1;
  for (const Placement* p : {&afd, &dma}) {
    for (std::uint32_t d = 0; d < p->num_dbcs(); ++d) {
      depth = std::max(depth, static_cast<std::uint32_t>(p->dbc(d).size()));
    }
  }
  struct Row {
    std::uint32_t ports;
    std::uint64_t afd_ofu;
    std::uint64_t dma_sr;
  };
  for (const Row row : {Row{1, 177, 54}, Row{2, 177, 54}, Row{4, 121, 54}}) {
    CostOptions cost;
    cost.domains_per_dbc = depth;
    cost.port_offsets.clear();
    for (std::uint32_t i = 0; i < row.ports; ++i) {
      cost.port_offsets.push_back(static_cast<std::uint32_t>(
          (2ULL * i + 1) * depth / (2ULL * row.ports)));
    }
    EXPECT_EQ(ShiftCost(seq, afd, cost), row.afd_ofu) << row.ports;
    EXPECT_EQ(ShiftCost(seq, dma, cost), row.dma_sr) << row.ports;
  }
}

TEST(CostModel, ThrowsOnUnplacedAccessedVariable) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const auto p = Placement::FromLists({{0}}, 2);  // b unplaced
  EXPECT_THROW((void)ShiftCost(seq, p), std::logic_error);
}

TEST(CostModel, RejectsPlacementsDeeperThanDbc) {
  // Regression: the analytic path used to accept placements whose offsets
  // exceed domains_per_dbc while sim::Simulate rejected the same placement.
  const auto seq = AccessSequence::FromCompactString("abcd");
  const auto p = Placement::FromLists({{0, 1, 2}, {3}}, 4);
  CostOptions options;
  options.domains_per_dbc = 2;  // DBC0 holds 3 variables: offset 2 invalid
  EXPECT_THROW((void)ShiftCost(seq, p, options), std::invalid_argument);
  EXPECT_THROW((void)PerDbcShiftCost(seq, p, options), std::invalid_argument);
  options.domains_per_dbc = 3;
  EXPECT_NO_THROW((void)ShiftCost(seq, p, options));
  options.domains_per_dbc = 0;  // unset: no validation, as before
  EXPECT_NO_THROW((void)ShiftCost(seq, p, options));
}

TEST(CostModel, RejectsPortsOutsideTheDbc) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const auto p = Placement::FromLists({{0, 1}}, 2);
  CostOptions options;
  options.port_offsets = {4};
  options.domains_per_dbc = 4;  // valid offsets are 0..3
  EXPECT_THROW((void)ShiftCost(seq, p, options), std::invalid_argument);
  options.port_offsets = {3};
  EXPECT_NO_THROW((void)ShiftCost(seq, p, options));
}

TEST(CostModel, ThrowsOnEmptyPortList) {
  const auto seq = AccessSequence::FromCompactString("a");
  const auto p = Placement::FromLists({{0}}, 1);
  CostOptions options;
  options.port_offsets = {};
  EXPECT_THROW((void)ShiftCost(seq, p, options), std::invalid_argument);
}

TEST(CostModel, ZeroAlignmentWalksFromOffsetZero) {
  // Ids by first appearance: b = 0, a = 1. Order {1, 0}: a at offset 0,
  // b at offset 1.
  const auto seq = AccessSequence::FromCompactString("ba");
  const auto p = Placement::FromLists({{1, 0}}, 2);
  EXPECT_EQ(ShiftCost(seq, p), 1u);  // b free, then hop to a
  CostOptions zero;
  zero.initial_alignment = rtm::InitialAlignment::kZero;
  EXPECT_EQ(ShiftCost(seq, p, zero), 2u);  // reach b (1), back to a (1)
}

TEST(CostModel, EmptySequenceCostsNothing) {
  trace::AccessSequence seq;
  seq.AddVariable("a");
  const auto p = Placement::FromLists({{0}}, 1);
  EXPECT_EQ(ShiftCost(seq, p), 0u);
}

// ---- the slot-table form ---------------------------------------------------

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

/// Both alignments x {port 0, a port mid-DBC with the depth set, two
/// ports}.
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

std::vector<VariableId> RunsOf(const AccessSequence& seq) {
  std::vector<VariableId> runs;
  AccessRuns(seq.accesses(), runs);
  return runs;
}

/// ShiftCostOfSlots of a Placement through its slots() span.
std::uint64_t SlotCostOf(const AccessSequence& seq, const Placement& p,
                         const CostOptions& options) {
  std::vector<std::uint32_t> fill(p.num_dbcs());
  for (std::uint32_t d = 0; d < p.num_dbcs(); ++d) {
    fill[d] = static_cast<std::uint32_t>(p.dbc(d).size());
  }
  return ShiftCostOfSlots(RunsOf(seq), p.slots(), fill, options);
}

TEST(AccessRuns, DropsConsecutiveRepeatsOnly) {
  const auto seq = AccessSequence::FromCompactString("aabbbaacb");
  // a = 0, b = 1, c = 2.
  EXPECT_EQ(RunsOf(seq), (std::vector<VariableId>{0, 1, 0, 2, 1}));
  EXPECT_TRUE(RunsOf(AccessSequence::FromCompactString("")).empty());
  std::vector<VariableId> runs = {7, 7, 7};
  AccessRuns(AccessSequence::FromCompactString("aaaa").accesses(), runs);
  EXPECT_EQ(runs, (std::vector<VariableId>{0}));
}

TEST(ShiftCostOfSlots, MatchesShiftCostOnRandomDraws) {
  util::Rng rng(0x5C0E);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 1 + rng.NextBelow(12);
    const auto seq = RandomSequence(n, rng.NextBelow(80), rng);
    const auto runs = RunsOf(seq);
    const auto q = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    for (const CostOptions& options : OptionMatrix(/*domains=*/16)) {
      RandomDraw draw;
      DrawRandomSlots(n, q, /*capacity=*/16, rng, draw);
      if (options.port_offsets.size() != 1) {
        EXPECT_THROW(
            (void)ShiftCostOfSlots(runs, draw.slots, draw.fill, options),
            std::logic_error);
        continue;
      }
      const Placement built = draw.Build();
      const std::uint64_t expected = ShiftCost(seq, built, options);
      EXPECT_EQ(ShiftCostOfSlots(runs, draw.slots, draw.fill, options),
                expected);
      EXPECT_EQ(SlotCostOf(seq, built, options), expected);
    }
  }
}

TEST(ShiftCostOfSlots, FollowsPlacementEditsThroughSlots) {
  // The GA's pattern: consecutive placements differ by one edit, each
  // scored through Placement::slots().
  util::Rng rng(7);
  const auto seq = RandomSequence(10, 120, rng);
  for (const CostOptions& options : OptionMatrix(/*domains=*/16)) {
    if (options.port_offsets.size() != 1) continue;
    Placement p = RandomPlacement(10, 4, 16, rng);
    for (int step = 0; step < 60; ++step) {
      const auto v = static_cast<VariableId>(rng.NextBelow(10));
      const auto d = static_cast<std::uint32_t>(rng.NextBelow(4));
      p.MoveToEnd(v, d);
      if (p.dbc(d).size() >= 2) p.Transpose(d, 0, p.dbc(d).size() - 1);
      ASSERT_EQ(SlotCostOf(seq, p, options), ShiftCost(seq, p, options))
          << step;
    }
  }
}

TEST(ShiftCostOfSlots, ValidatesLikeShiftCost) {
  const auto seq = AccessSequence::FromCompactString("abcab");
  const auto runs = RunsOf(seq);
  CostOptions options;
  options.domains_per_dbc = 2;
  const std::vector<Slot> deep = {{0, 0}, {0, 1}, {0, 2}};
  const std::vector<std::uint32_t> deep_fill = {3};
  EXPECT_THROW((void)ShiftCostOfSlots(runs, deep, deep_fill, options),
               std::invalid_argument);
  const std::vector<Slot> fits = {{0, 0}, {0, 1}, {1, 0}};
  const std::vector<std::uint32_t> fits_fill = {2, 1};
  EXPECT_EQ(ShiftCostOfSlots(runs, fits, fits_fill, options),
            ShiftCost(seq, Placement::FromLists({{0, 1}, {2}}, 3), options));
  CostOptions outside = options;
  outside.port_offsets = {2};  // valid offsets are 0..1
  EXPECT_THROW((void)ShiftCostOfSlots(runs, fits, fits_fill, outside),
               std::invalid_argument);
  CostOptions no_ports;
  no_ports.port_offsets = {};
  EXPECT_THROW((void)ShiftCostOfSlots(runs, fits, fits_fill, no_ports),
               std::invalid_argument);
  // A table may cover more variables than the sequence accesses.
  const auto wide = Placement::FromLists({{0, 3, 1, 4}, {2}}, 5);
  EXPECT_EQ(SlotCostOf(seq, wide, {}), ShiftCost(seq, wide));
}

TEST(ShiftCostOfSlots, RejectsShortTablesAndUnplacedVariables) {
  const auto seq = AccessSequence::FromCompactString("abcab");
  const auto runs = RunsOf(seq);
  const std::vector<std::uint32_t> fill = {2, 1};
  // c (id 2) is accessed but has no slot.
  const std::vector<Slot> missing = {{0, 0}, {0, 1}};
  EXPECT_THROW((void)ShiftCostOfSlots(runs, missing, fill, {}),
               std::invalid_argument);
  // A DBC index at or past fill.size(), Placement's unplaced marker
  // included, throws what ShiftCost throws for an unplaced variable.
  const std::vector<Slot> past = {{0, 0}, {0, 1}, {2, 0}};
  EXPECT_THROW((void)ShiftCostOfSlots(runs, past, fill, {}),
               std::logic_error);
  const auto partial = Placement::FromLists({{0, 1}}, 3);  // c unplaced
  const std::vector<std::uint32_t> partial_fill = {2};
  EXPECT_THROW((void)ShiftCost(seq, partial), std::logic_error);
  EXPECT_THROW(
      (void)ShiftCostOfSlots(runs, partial.slots(), partial_fill, {}),
      std::logic_error);
  // An unplaced variable the runs never reach is fine.
  const auto ab = AccessSequence::FromCompactString("abab");
  const auto ab_partial = Placement::FromLists({{1, 0}}, 3);
  EXPECT_EQ(
      ShiftCostOfSlots(RunsOf(ab), ab_partial.slots(), partial_fill, {}),
      ShiftCost(ab, ab_partial));
}

TEST(ShiftCostOfSlots, RepeatHeavySequences) {
  // The runs hold only the first access of each run of one variable; the
  // skipped repeats must cost nothing under every alignment. "bbbaaa"
  // and "ccaaabbb" open each DBC with a run.
  for (const char* text : {"aaaa", "aabbaab", "a", "", "bbbaaa", "ccaaabbb",
                           "aaabbbaaaccc"}) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto runs = RunsOf(seq);
    const std::size_t n = seq.num_variables();
    util::Rng rng(0x2E9EA7);
    for (const CostOptions& options : OptionMatrix(/*domains=*/8)) {
      if (options.port_offsets.size() != 1) continue;
      SCOPED_TRACE(std::string(text) + " zero=" +
                   (options.initial_alignment == rtm::InitialAlignment::kZero
                        ? "1"
                        : "0"));
      for (const std::uint32_t q : {1u, 2u, 3u}) {
        for (int sample = 0; sample < 8; ++sample) {
          RandomDraw draw;
          DrawRandomSlots(n, q, /*capacity=*/8, rng, draw);
          EXPECT_EQ(ShiftCostOfSlots(runs, draw.slots, draw.fill, options),
                    ShiftCost(seq, draw.Build(), options));
        }
      }
    }
  }
}

// ---- cross-engine pin over the workload registry ---------------------------
//
// For every generator/synthetic workload crossed with a sampled strategy
// set, the shift-count engines must agree on every sequence: the analytic
// ShiftCost, the slot-table walk ShiftCostOfSlots, and the device-level
// sim::Simulate replay. The agreed values additionally fold into one
// fingerprint pinned below: a behavioural change in any engine, any of
// the workload generators, or any sampled heuristic fails this test by
// value, not just by crash.
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
          const std::uint64_t slot_walk =
              SlotCostOf(seq, placement, cost_options);
          const std::uint64_t simulated =
              sim::Simulate(seq, placement, cfg).stats.shifts;
          ASSERT_EQ(analytic, slot_walk)
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
