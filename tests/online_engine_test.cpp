// Correctness oracles of the online adaptive placement engine.
//
// The two acceptance oracles (ISSUE 5):
//  * Degeneration: with phase detection disabled and one window covering
//    the whole trace, the engine's placement and analytic cost are
//    bit-identical to the wrapped static registry strategy, and its
//    device charge equals sim::Simulate on the same placement.
//  * Decomposition: with migrations forced, the engine's total shifts
//    equal the sum of per-window service traffic and migration traffic,
//    reproduced exactly by an independently spliced request stream
//    driven through a fresh controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/strategy_registry.h"
#include "offsetstone/suite.h"
#include "online/engine.h"
#include "online/migration.h"
#include "online/online_cell.h"
#include "online/phase_detector.h"
#include "online/policy.h"
#include "rtm/controller.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

trace::AccessSequence WorkloadSequence(const std::string& name,
                                       std::size_t index = 0) {
  const auto workload = workloads::ResolveWorkload(name);
  EXPECT_NE(workload, nullptr) << name;
  auto benchmark = workload->Generate({});
  EXPECT_GT(benchmark.sequences.size(), index);
  return std::move(benchmark.sequences[index]);
}

online::OnlineConfig SingleWindowConfig(const std::string& strategy,
                                        const rtm::RtmConfig& config) {
  online::OnlineConfig online;
  online.reseed_strategy = strategy;
  online.window_accesses = online::kWholeTraceWindow;
  online.detector.kind = online::DetectorKind::kNone;
  online.strategy_options.cost.initial_alignment = config.initial_alignment;
  return online;
}

core::PlacementResult StaticPlacement(const std::string& strategy_name,
                                      const trace::AccessSequence& seq,
                                      const rtm::RtmConfig& config,
                                      const core::StrategyOptions& options) {
  const auto strategy = core::StrategyRegistry::Global().Find(strategy_name);
  EXPECT_NE(strategy, nullptr);
  core::PlacementRequest request;
  request.sequence = &seq;
  request.num_dbcs = config.total_dbcs();
  request.capacity = config.domains_per_dbc;
  request.options = options;
  return strategy->Run(request);
}

// ---- oracle 1: single window degenerates to the static strategy ----------

TEST(OnlineOracle, SingleWindowIsBitIdenticalToStaticStrategy) {
  for (const char* strategy : {"dma-sr", "afd-ofu", "dma-chen"}) {
    for (const char* workload : {"gemm-tiled", "kv-churn", "gsm"}) {
      const trace::AccessSequence seq = WorkloadSequence(workload);
      const rtm::RtmConfig config =
          sim::CellConfig(4, seq.num_variables());
      const online::OnlineConfig online_config =
          SingleWindowConfig(strategy, config);

      const online::OnlineResult result =
          online::RunOnline(seq, online_config, config);
      const core::PlacementResult expected = StaticPlacement(
          strategy, seq, config, online_config.strategy_options);

      EXPECT_EQ(result.final_placement, expected.placement)
          << strategy << " on " << workload;
      EXPECT_EQ(result.placement_cost, expected.cost)
          << strategy << " on " << workload;
      EXPECT_EQ(result.windows.size(), 1u);
      EXPECT_EQ(result.migrations, 0u);
      EXPECT_EQ(result.migration_shifts, 0u);

      const sim::SimulationResult simulated =
          sim::Simulate(seq, expected.placement, config);
      EXPECT_EQ(result.stats.shifts, simulated.stats.shifts);
      EXPECT_EQ(result.amortized_shifts, simulated.stats.shifts);
      EXPECT_EQ(result.reads + result.writes, simulated.stats.accesses());
      // Simulate replays through the same serial controller: even the
      // timing and energy doubles are bit-equal.
      EXPECT_EQ(result.stats.makespan_ns, simulated.stats.runtime_ns);
      EXPECT_EQ(result.energy.total_pj(), simulated.energy.total_pj());
    }
  }
}

/// The largest sequence of an OffsetStone-lite benchmark.
trace::AccessSequence LargestSuiteSequence(const std::string& name) {
  const auto profile = offsetstone::FindProfile(name);
  EXPECT_TRUE(profile.has_value()) << name;
  auto benchmark = offsetstone::Generate(*profile, 0);
  auto largest = benchmark.sequences.begin();
  for (auto it = benchmark.sequences.begin(); it != benchmark.sequences.end();
       ++it) {
    if (it->size() > largest->size()) largest = it;
  }
  return std::move(*largest);
}

TEST(OnlineOracle, WindowingAloneIsCostTransparent) {
  // Multiple windows but no detector and no refinement: the placement
  // never changes after window 0... but window 0 only sees a prefix, so
  // compare against the device replay of the SAME placement, which must
  // match exactly (alignments carry across window boundaries). Each
  // window's fused analytic price must equal a plain core::ShiftCost over
  // that window alone (first access free per window), and the windows
  // must sum to placement_cost.
  struct Case {
    std::string name;
    trace::AccessSequence seq;
    unsigned dbcs;
    std::size_t window;
  };
  std::vector<Case> cases;
  cases.push_back({"stencil", WorkloadSequence("stencil"), 4, 64});
  for (const char* name : {"fft", "gzip", "jpeg"}) {
    cases.push_back({name, LargestSuiteSequence(name), 8, 256});
  }
  for (const Case& c : cases) {
    const rtm::RtmConfig config =
        sim::CellConfig(c.dbcs, c.seq.num_variables());
    online::OnlineConfig online_config = SingleWindowConfig("dma-sr", config);
    online_config.window_accesses = c.window;

    const online::OnlineResult result =
        online::RunOnline(c.seq, online_config, config);
    EXPECT_GT(result.windows.size(), 1u) << c.name;
    EXPECT_EQ(result.migrations, 0u) << c.name;

    const sim::SimulationResult simulated =
        sim::Simulate(c.seq, result.final_placement, config);
    EXPECT_EQ(result.stats.shifts, simulated.stats.shifts) << c.name;
    EXPECT_EQ(result.stats.makespan_ns, simulated.stats.runtime_ns) << c.name;

    trace::AccessSequence window = c.seq;
    std::uint64_t window_costs = 0;
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      const online::WindowRecord& record = result.windows[w];
      window.ClearAccesses();
      for (std::size_t i = 0; i < record.accesses; ++i) {
        const trace::Access& access = c.seq.accesses()[record.begin + i];
        window.Append(access.variable, access.type);
      }
      const std::uint64_t cost = core::ShiftCost(
          window, result.final_placement, online_config.strategy_options.cost);
      EXPECT_EQ(record.window_cost, cost) << c.name << " window " << w;
      window_costs += cost;
    }
    EXPECT_EQ(result.placement_cost, window_costs) << c.name;
  }
}

TEST(OnlineOracle, OnlineStaticCellMatchesStaticCellExactly) {
  // The registry-level version of the degeneration oracle, through the
  // very path RunMatrix uses.
  const auto workload = workloads::ResolveWorkload("hash-join");
  ASSERT_NE(workload, nullptr);
  const auto benchmark = workload->Generate({});
  sim::ExperimentOptions options;

  const sim::RunResult static_cell =
      sim::RunCell(benchmark, 4, "dma-sr", options);
  const sim::RunResult online_cell =
      sim::RunCell(benchmark, 4, "online-static-dma-sr", options);

  EXPECT_EQ(online_cell.metrics.shifts, static_cell.metrics.shifts);
  EXPECT_EQ(online_cell.metrics.accesses, static_cell.metrics.accesses);
  EXPECT_EQ(online_cell.placement_cost, static_cell.placement_cost);
  EXPECT_EQ(online_cell.search_evaluations, static_cell.search_evaluations);
  EXPECT_EQ(online_cell.metrics.runtime_ns, static_cell.metrics.runtime_ns);
  EXPECT_EQ(online_cell.metrics.shift_pj, static_cell.metrics.shift_pj);
  EXPECT_EQ(online_cell.metrics.leakage_pj, static_cell.metrics.leakage_pj);
  EXPECT_EQ(online_cell.strategy_name, "online-static-dma-sr");
}

// ---- oracle 2: shifts decompose into service + migration -----------------

TEST(OnlineOracle, ShiftsDecomposeIntoServiceAndMigrationTraffic) {
  const trace::AccessSequence seq =
      WorkloadSequence("phased(gemm-tiled,stream-scan)", 1);
  const rtm::RtmConfig config = sim::CellConfig(4, seq.num_variables());

  online::OnlineConfig online_config = SingleWindowConfig("dma-sr", config);
  online_config.window_accesses = 200;
  online_config.detector.kind = online::DetectorKind::kFixedWindow;
  online_config.detector.period = 1;
  // Adopt every per-window re-seed: placements become pure per-window
  // strategy outputs, reproducible below without the accept heuristic.
  online_config.always_accept_reseed = true;

  const online::OnlineResult result =
      online::RunOnline(seq, online_config, config);
  ASSERT_GT(result.migrations, 0u);
  EXPECT_EQ(result.amortized_shifts,
            result.service_shifts + result.migration_shifts);
  EXPECT_EQ(result.amortized_shifts, result.stats.shifts);

  std::uint64_t window_service = 0;
  std::uint64_t window_migration = 0;
  for (const online::WindowRecord& record : result.windows) {
    window_service += record.service_shifts;
    window_migration += record.migration_shifts;
  }
  EXPECT_EQ(window_service, result.service_shifts);
  EXPECT_EQ(window_migration, result.migration_shifts);

  // Independent reproduction: re-run the per-window strategy placements,
  // splice [window 0][migration 0->1][window 1]... into one raw request
  // stream, and drive it through a fresh controller.
  std::vector<rtm::TimedRequest> spliced;
  core::Placement active{0, 1};
  std::size_t begin = 0;
  for (std::size_t w = 0; w < result.windows.size(); ++w) {
    const std::size_t accesses = result.windows[w].accesses;
    trace::AccessSequence window_seq;
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      window_seq.AddVariable(seq.name_of(v));
    }
    for (std::size_t i = begin; i < begin + accesses; ++i) {
      window_seq.Append(seq[i].variable, seq[i].type);
    }

    core::StrategyOptions options = online_config.strategy_options;
    options.ga.seed = online::WindowSeed(options.ga.seed, w);
    options.rw.seed = options.ga.seed;
    const core::Placement window_placement =
        StaticPlacement("dma-sr", window_seq, config, options).placement;

    if (w == 0) {
      active = window_placement;
    } else if (!(window_placement == active)) {
      const online::MigrationPlan plan =
          online::PlanMigration(active, window_placement);
      spliced.insert(spliced.end(), plan.requests.begin(),
                     plan.requests.end());
      active = window_placement;
    }
    for (std::size_t i = begin; i < begin + accesses; ++i) {
      const core::Slot slot = active.SlotOf(seq[i].variable);
      spliced.push_back(
          rtm::TimedRequest{0.0, slot.dbc, slot.offset, seq[i].type});
    }
    begin += accesses;
  }
  ASSERT_EQ(begin, seq.size());
  EXPECT_EQ(active, result.final_placement);

  rtm::RtmController controller(config, online_config.controller);
  (void)controller.Execute(spliced);
  EXPECT_EQ(controller.stats().shifts, result.stats.shifts);
  EXPECT_DOUBLE_EQ(controller.stats().makespan_ns, result.stats.makespan_ns);
  EXPECT_EQ(controller.stats().requests, result.stats.requests);
}

// ---- batched Feed equivalence --------------------------------------------
//
// Feeding a whole block — including its direct-span window serving — must
// be bit-identical to feeding one access per call on everything
// observable: window records, migration totals, controller statistics and
// the final placement.

enum class FeedMode { kPerAccess, kBatched };

online::OnlineResult Serve(const trace::AccessSequence& seq,
                           const online::OnlineConfig& cfg,
                           const rtm::RtmConfig& device, FeedMode mode) {
  online::OnlineEngine engine(cfg, device);
  for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
    (void)engine.RegisterVariable(seq.name_of(v));
  }
  if (mode == FeedMode::kBatched) {
    engine.Feed(std::span<const trace::Access>(seq.accesses()));
  } else {
    for (const trace::Access& access : seq.accesses()) {
      engine.Feed(std::span<const trace::Access>(&access, 1));
    }
  }
  return engine.Finish();
}

void ExpectIdenticalResults(const online::OnlineResult& batched,
                            const online::OnlineResult& loop,
                            const std::string& label) {
  ASSERT_EQ(batched.windows.size(), loop.windows.size()) << label;
  for (std::size_t w = 0; w < batched.windows.size(); ++w) {
    const online::WindowRecord& b = batched.windows[w];
    const online::WindowRecord& l = loop.windows[w];
    EXPECT_EQ(b.begin, l.begin) << label << " window " << w;
    EXPECT_EQ(b.accesses, l.accesses) << label << " window " << w;
    EXPECT_EQ(b.phase_change, l.phase_change) << label << " window " << w;
    EXPECT_EQ(b.drift, l.drift) << label << " window " << w;
    EXPECT_EQ(b.replaced, l.replaced) << label << " window " << w;
    EXPECT_EQ(b.migrated_vars, l.migrated_vars) << label << " window " << w;
    EXPECT_EQ(b.migration_shifts, l.migration_shifts)
        << label << " window " << w;
    EXPECT_EQ(b.service_shifts, l.service_shifts)
        << label << " window " << w;
    EXPECT_EQ(b.window_cost, l.window_cost) << label << " window " << w;
    EXPECT_EQ(b.budget_denied, l.budget_denied) << label << " window " << w;
    EXPECT_EQ(b.latency_ns, l.latency_ns) << label << " window " << w;
  }
  EXPECT_EQ(batched.migrations, loop.migrations) << label;
  EXPECT_EQ(batched.budget_denials, loop.budget_denials) << label;
  EXPECT_EQ(batched.migrated_vars, loop.migrated_vars) << label;
  EXPECT_EQ(batched.service_shifts, loop.service_shifts) << label;
  EXPECT_EQ(batched.migration_shifts, loop.migration_shifts) << label;
  EXPECT_EQ(batched.amortized_shifts, loop.amortized_shifts) << label;
  EXPECT_EQ(batched.migration_accesses, loop.migration_accesses) << label;
  EXPECT_EQ(batched.reads, loop.reads) << label;
  EXPECT_EQ(batched.writes, loop.writes) << label;
  EXPECT_EQ(batched.placement_cost, loop.placement_cost) << label;
  EXPECT_EQ(batched.evaluations, loop.evaluations) << label;
  EXPECT_EQ(batched.final_placement, loop.final_placement) << label;
  // Controller view, doubles included: the paths run the same arithmetic
  // in the same order, so even the timing sums are bit-equal.
  EXPECT_EQ(batched.stats.requests, loop.stats.requests) << label;
  EXPECT_EQ(batched.stats.shifts, loop.stats.shifts) << label;
  EXPECT_EQ(batched.stats.makespan_ns, loop.stats.makespan_ns) << label;
  EXPECT_EQ(batched.stats.channel_busy_ns, loop.stats.channel_busy_ns)
      << label;
  EXPECT_EQ(batched.stats.shift_busy_ns, loop.stats.shift_busy_ns) << label;
  EXPECT_EQ(batched.stats.hidden_shift_ns, loop.stats.hidden_shift_ns)
      << label;
  EXPECT_EQ(batched.stats.exposed_shift_ns, loop.stats.exposed_shift_ns)
      << label;
  EXPECT_EQ(batched.energy.total_pj(), loop.energy.total_pj()) << label;
}

std::vector<rtm::ControllerConfig> ControllerModes() {
  rtm::ControllerConfig serial;
  rtm::ControllerConfig proactive;
  proactive.proactive_alignment = true;
  proactive.lookahead = 2;
  return {serial, proactive};
}

TEST(OnlineEngine, BatchedFeedMatchesPerAccessFeedOnStablePlacements) {
  // Detector off, variables pre-registered: the placement settles at
  // window 0 and the batched path may serve full windows straight from
  // the span (the direct fast path). Every observable must still match
  // one access per call exactly.
  for (const char* workload : {"gemm-tiled", "kv-churn", "stencil"}) {
    const trace::AccessSequence seq = WorkloadSequence(workload);
    const rtm::RtmConfig config = sim::CellConfig(4, seq.num_variables());
    std::size_t mode_index = 0;
    for (const rtm::ControllerConfig& controller : ControllerModes()) {
      online::OnlineConfig cfg = SingleWindowConfig("dma-sr", config);
      cfg.window_accesses = 64;
      cfg.controller = controller;
      const std::string label =
          std::string(workload) + " mode " + std::to_string(mode_index++);
      const online::OnlineResult batched =
          Serve(seq, cfg, config, FeedMode::kBatched);
      const online::OnlineResult loop =
          Serve(seq, cfg, config, FeedMode::kPerAccess);
      ASSERT_GT(batched.windows.size(), 1u) << label;
      EXPECT_EQ(batched.migrations, 0u) << label;
      ExpectIdenticalResults(batched, loop, label);
    }
  }
}

TEST(OnlineEngine, BatchedFeedMatchesPerAccessFeedUnderMigrations) {
  // Detector firing every window with forced re-seed adoption: windows
  // migrate, so the batched path must fall back to the buffered route
  // and still reproduce the loop bit for bit.
  const trace::AccessSequence seq =
      WorkloadSequence("phased(gemm-tiled,stream-scan)", 1);
  const rtm::RtmConfig config = sim::CellConfig(4, seq.num_variables());
  std::size_t mode_index = 0;
  for (const rtm::ControllerConfig& controller : ControllerModes()) {
    online::OnlineConfig cfg = SingleWindowConfig("dma-sr", config);
    cfg.window_accesses = 200;
    cfg.detector.kind = online::DetectorKind::kFixedWindow;
    cfg.detector.period = 1;
    cfg.always_accept_reseed = true;
    cfg.controller = controller;
    const std::string label = "mode " + std::to_string(mode_index++);
    const online::OnlineResult batched =
        Serve(seq, cfg, config, FeedMode::kBatched);
    const online::OnlineResult loop =
        Serve(seq, cfg, config, FeedMode::kPerAccess);
    ASSERT_GT(batched.migrations, 0u) << label;
    ExpectIdenticalResults(batched, loop, label);
  }
}

TEST(OnlineEngine, RefusedReseedServesAtTheKeptPlacementsPrice) {
  // A refused re-seed has already priced its window under the kept
  // placement, and the service walk takes that price instead of pricing
  // the window again. Every window's cost must still be ShiftCost of the
  // window under the placement that served it, refused windows included,
  // and placement_cost their sum.
  const trace::AccessSequence seq =
      WorkloadSequence("phased(gemm-tiled,stream-scan)", 1);
  const rtm::RtmConfig device = sim::CellConfig(4, seq.num_variables());
  constexpr std::size_t kWindow = 64;
  for (const rtm::InitialAlignment alignment :
       {rtm::InitialAlignment::kFirstAccess, rtm::InitialAlignment::kZero}) {
    online::OnlineConfig config = online::OnlinePolicyRegistry::Global()
                                      .Find("online-fixed-dma-sr")
                                      ->MakeConfig();
    config.window_accesses = kWindow;
    config.strategy_options.cost.initial_alignment = alignment;
    online::OnlineEngine engine(config, device);
    trace::AccessSequence window;
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      (void)engine.RegisterVariable(seq.name_of(v));
      (void)window.AddVariable(seq.name_of(v));
    }
    std::size_t refused = 0;
    std::uint64_t total = 0;
    for (std::size_t begin = 0; begin + kWindow <= seq.size();
         begin += kWindow) {
      const core::Placement before =
          engine.placed() ? engine.placement() : core::Placement(0, 1);
      const std::span<const trace::Access> accesses =
          std::span<const trace::Access>(seq.accesses())
              .subspan(begin, kWindow);
      engine.Feed(accesses);
      window.ClearAccesses();
      for (const trace::Access& access : accesses) {
        window.Append(access.variable, access.type);
      }
      const online::WindowRecord& record = engine.Windows().back();
      EXPECT_EQ(record.window_cost,
                core::ShiftCost(window, engine.placement(),
                                config.strategy_options.cost))
          << "window at " << begin;
      if (record.phase_change && !record.replaced) {
        ++refused;
        EXPECT_EQ(engine.placement(), before) << "window at " << begin;
      }
      total += record.window_cost;
    }
    const online::OnlineResult result = engine.Finish();
    EXPECT_GT(refused, 0u);
    EXPECT_GT(result.migrations, 0u);
    EXPECT_EQ(result.placement_cost, total);
  }
}

// ---- detector behaviour --------------------------------------------------

TEST(PhaseDetector, FixedWindowFiresOnItsPeriod) {
  online::PhaseDetector detector(
      {online::DetectorKind::kFixedWindow, /*period=*/3, 0.35, 0.3});
  const online::TransitionSummary empty;
  std::vector<bool> fired;
  for (int w = 0; w < 8; ++w) {
    fired.push_back(detector.Observe(empty).phase_change);
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, false,
                                      false, true, false}));
}

TEST(PhaseDetector, EwmaDetectsADistributionSwapAndSettles) {
  online::PhaseDetector detector(
      {online::DetectorKind::kEwmaDrift, 1, /*threshold=*/0.5,
       /*alpha=*/0.3});
  // Phase A: a-b-a-b...; phase B: c-d-c-d... One shared variable space —
  // the ids (hence transition keys) must actually differ across phases.
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababababababab" "cdcdcdcdcdcdcdcd");
  const std::span<const trace::Access> accesses = full.accesses();
  const auto summary_a = online::SummarizeTransitions(accesses.subspan(0, 16));
  const auto summary_b = online::SummarizeTransitions(accesses.subspan(16));

  EXPECT_FALSE(detector.Observe(summary_a).phase_change);  // seeds
  EXPECT_FALSE(detector.Observe(summary_a).phase_change);  // stable
  const auto swap = detector.Observe(summary_b);
  EXPECT_TRUE(swap.phase_change);
  EXPECT_GT(swap.drift, 0.9);
  // The model restarted from phase B: staying in B does not re-trigger.
  EXPECT_FALSE(detector.Observe(summary_b).phase_change);
}

TEST(PhaseDetector, RejectsInvalidConfigs) {
  EXPECT_THROW(online::PhaseDetector(
                   {online::DetectorKind::kFixedWindow, 0, 0.35, 0.3}),
               std::invalid_argument);
  EXPECT_THROW(online::PhaseDetector(
                   {online::DetectorKind::kEwmaDrift, 1, 1.5, 0.3}),
               std::invalid_argument);
  EXPECT_THROW(online::PhaseDetector(
                   {online::DetectorKind::kEwmaDrift, 1, 0.35, 0.0}),
               std::invalid_argument);
}

// ---- migration planner ---------------------------------------------------

TEST(MigrationPlanner, PlansSweepsAndPricesThem) {
  core::Placement from = core::Placement::FromLists(
      {{0, 1, 2}, {3, 4}}, 5);
  core::Placement to = core::Placement::FromLists(
      {{0, 4, 2}, {3, 1}}, 5);  // 1 and 4 swapped across DBCs
  const online::MigrationPlan plan = online::PlanMigration(from, to);
  ASSERT_EQ(plan.moves.size(), 2u);
  // Reads sweep source DBCs in (dbc, old offset) order: v1 from (0,1),
  // then v4 from (1,1); writes sweep targets: v4 to (0,1), v1 to (1,1).
  EXPECT_EQ(plan.moves[0].variable, 1u);
  EXPECT_EQ(plan.moves[1].variable, 4u);
  ASSERT_EQ(plan.requests.size(), 4u);
  EXPECT_EQ(plan.requests[0].type, trace::AccessType::kRead);
  EXPECT_EQ(plan.requests[2].type, trace::AccessType::kWrite);
  // First access per DBC free, no second same-DBC access in any sweep.
  EXPECT_EQ(plan.estimated_shifts, 0u);

  const online::MigrationPlan none = online::PlanMigration(from, from);
  EXPECT_TRUE(none.empty());
}

TEST(MigrationPlanner, RejectsMismatchedVariableSpaces) {
  core::Placement a = core::Placement::FromLists({{0, 1}}, 2);
  core::Placement b = core::Placement::FromLists({{0, 1, 2}}, 3);
  EXPECT_THROW((void)online::PlanMigration(a, b), std::invalid_argument);
  // Same space, but a variable placed on one side only.
  core::Placement c = core::Placement::FromLists({{0}}, 2);
  EXPECT_THROW((void)online::PlanMigration(a, c), std::invalid_argument);
}

// ---- policy registry -----------------------------------------------------

TEST(OnlinePolicyRegistry, BuiltinsAreRegisteredAndResolvable) {
  auto& registry = online::OnlinePolicyRegistry::Global();
  EXPECT_GE(registry.size(), 6u);
  for (const char* name :
       {"online-static-dma-sr", "online-fixed-dma-sr", "online-ewma-dma-sr",
        "online-static-afd-ofu", "online-fixed-afd-ofu",
        "online-ewma-afd-ofu"}) {
    ASSERT_TRUE(registry.Contains(name)) << name;
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->name, name);
    EXPECT_TRUE(core::StrategyRegistry::Global().Contains(
        registry.Find(name)->MakeConfig().reseed_strategy));
  }
  // Case-insensitive, like the other registries.
  EXPECT_TRUE(registry.Contains("Online-EWMA-DMA-SR"));
}

TEST(OnlinePolicyRegistry, RejectsCollisionsAndBadNames) {
  online::OnlinePolicyRegistry registry;
  const auto factory = [] {
    return std::make_shared<const online::OnlinePolicy>(
        util::RecipeInfo{"p", "test"},
        online::OnlineConfig{});
  };
  EXPECT_THROW(registry.Register("has space", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("", factory), std::invalid_argument);
  registry.Register("my-policy", factory);
  EXPECT_THROW(registry.Register("MY-POLICY", factory),
               std::invalid_argument);
}

// ---- refinement margin ---------------------------------------------------

TEST(MigrationPlanner, SingleMoveEstimateIsTwiceTheFlooredThirdOfK) {
  EXPECT_EQ(online::EstimatedSingleMoveShifts(256), 170u);
  EXPECT_EQ(online::EstimatedSingleMoveShifts(64), 42u);
  EXPECT_EQ(online::EstimatedSingleMoveShifts(4), 2u);
}

/// Packs every variable into DBC 0 in id order: a fixed window-0 layout
/// for the refinement-margin test.
class PackFirstDbcStrategy final : public core::PlacementStrategy {
 public:
  const core::StrategyInfo& Describe() const noexcept override {
    static const core::StrategyInfo info{
        "pack-dbc0", "every variable in DBC 0, id order (test strategy)",
        /*search_based=*/false, /*spec=*/{}};
    return info;
  }

  core::PlacementResult Run(
      const core::PlacementRequest& request) const override {
    const trace::AccessSequence& seq = *request.sequence;
    core::PlacementResult result;
    result.placement = core::Placement(seq.num_variables(), request.num_dbcs,
                                       request.capacity);
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      result.placement.Append(0, v);
    }
    if (request.compute_cost) {
      result.cost =
          core::ShiftCost(seq, result.placement, request.options.cost);
    }
    return result;
  }
};

const core::StrategyRegistrar kPackFirstDbcRegistrar{"pack-dbc0", [] {
  return std::make_shared<const PackFirstDbcStrategy>();
}};

// Refine commits a move only when its realised window saving exceeds
// EstimatedSingleMoveShifts(K). With K = 8 the margin is 4. Window 0
// places a and b side by side in DBC 0, so each a<->b transition of
// window 1 costs one shift, and moving either one to the empty DBC 1
// saves exactly one shift per transition: 4 transitions sit at the
// margin (undone), 5 clear it (committed).
TEST(OnlineEngine, RefineCommitsOnlyMovesThatBeatThePerMoveMargin) {
  rtm::RtmConfig device;
  device.dbcs = 2;
  device.domains_per_dbc = 8;
  ASSERT_EQ(online::EstimatedSingleMoveShifts(device.domains_per_dbc), 4u);

  online::OnlineConfig config;
  config.reseed_strategy = "pack-dbc0";
  config.detector.kind = online::DetectorKind::kNone;
  config.refine = true;
  config.strategy_options.cost.initial_alignment =
      rtm::InitialAlignment::kFirstAccess;
  // Two windows of transitions + 1 alternating accesses each.
  const auto run = [&config, &device](std::size_t transitions) {
    std::string compact;
    for (std::size_t i = 0; i < 2 * (transitions + 1); ++i) {
      compact += i % 2 == 0 ? 'a' : 'b';
    }
    config.window_accesses = transitions + 1;
    return online::RunOnline(trace::AccessSequence::FromCompactString(compact),
                             config, device);
  };

  const online::OnlineResult at_margin = run(4);
  ASSERT_EQ(at_margin.windows.size(), 2u);
  EXPECT_FALSE(at_margin.windows[1].replaced);
  EXPECT_EQ(at_margin.windows[1].window_cost, 4u);  // served unrefined
  EXPECT_EQ(at_margin.migrations, 0u);
  EXPECT_EQ(at_margin.migration_shifts, 0u);

  const online::OnlineResult above = run(5);
  ASSERT_EQ(above.windows.size(), 2u);
  EXPECT_TRUE(above.windows[1].replaced);
  EXPECT_EQ(above.windows[1].window_cost, 0u);
  // a moves to DBC 1 and b slides down to offset 0 behind it.
  EXPECT_EQ(above.windows[1].migrated_vars, 2u);
  EXPECT_EQ(above.migrations, 1u);
  EXPECT_EQ(above.final_placement.SlotOf(0).dbc, 1u);
}

/// A uniformly random window-0 layout drawn from request.options.rw.seed
/// (test strategy): the refinement grid starts from placements that mix
/// hot and cold variables in every DBC.
class SeededRandomStrategy final : public core::PlacementStrategy {
 public:
  const core::StrategyInfo& Describe() const noexcept override {
    static const core::StrategyInfo info{
        "seeded-random", "uniformly random layout from the rw seed (test)",
        /*search_based=*/false, /*spec=*/{}};
    return info;
  }

  core::PlacementResult Run(
      const core::PlacementRequest& request) const override {
    util::Rng rng(request.options.rw.seed);
    core::PlacementResult result;
    result.placement =
        core::RandomPlacement(request.sequence->num_variables(),
                              request.num_dbcs, request.capacity, rng);
    return result;
  }
};

const core::StrategyRegistrar kSeededRandomRegistrar{"seeded-random", [] {
  return std::make_shared<const SeededRandomStrategy>();
}};

/// Refine spelled out: the window's kRefineTopK hottest variables
/// (frequency, then id), each tried at the end of every other DBC with
/// room by copying the placement, applying MoveToEnd and pricing the
/// window with ShiftCost; the cheapest move is kept when it saves more
/// than `margin`. Adds one to `evaluations` per priced move.
core::Placement ReplayGreedy(const trace::AccessSequence& window,
                             core::Placement placement,
                             const core::CostOptions& cost,
                             std::uint64_t margin, std::size_t& evaluations) {
  std::vector<std::uint64_t> freq(window.num_variables(), 0);
  std::vector<trace::VariableId> hot;
  for (const trace::Access& access : window.accesses()) {
    if (freq[access.variable]++ == 0) hot.push_back(access.variable);
  }
  std::sort(hot.begin(), hot.end(),
            [&freq](trace::VariableId a, trace::VariableId b) {
              if (freq[a] != freq[b]) return freq[a] > freq[b];
              return a < b;
            });
  if (hot.size() > online::kRefineTopK) hot.resize(online::kRefineTopK);
  std::uint64_t current = core::ShiftCost(window, placement, cost);
  for (const trace::VariableId v : hot) {
    const std::uint32_t home = placement.SlotOf(v).dbc;
    std::uint32_t best = home;
    std::uint64_t best_cost = current;
    for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
      if (d == home || placement.FreeIn(d) == 0) continue;
      core::Placement moved = placement;
      moved.MoveToEnd(v, d);
      const std::uint64_t priced = core::ShiftCost(window, moved, cost);
      ++evaluations;
      if (priced < best_cost) {
        best = d;
        best_cost = priced;
      }
    }
    if (best != home && current - best_cost > margin) {
      placement.MoveToEnd(v, best);
      current = best_cost;
    }
  }
  return placement;
}

// Over seeded windows, Refine's placement after every window and its
// total evaluation count equal the replay greedy's, for both initial
// alignments and tight capacities (a few free slots).
TEST(OnlineEngine, RefineMatchesAReplayGreedy) {
  util::Rng gen(0x2EF1E);
  std::size_t migrations = 0;
  for (int round = 0; round < 64; ++round) {
    const bool zero = round % 2 == 1;
    const auto q = static_cast<unsigned>(2 + gen.NextBelow(4));
    const auto domains = static_cast<unsigned>(4 + gen.NextBelow(6));
    static constexpr std::size_t kSlack[] = {1, 2, 3, 6};
    const std::size_t n = q * domains - kSlack[gen.NextBelow(4)];
    const std::size_t window_size = 12 + gen.NextBelow(40);
    constexpr std::size_t kWindows = 6;

    rtm::RtmConfig device;
    device.dbcs = q;
    device.domains_per_dbc = domains;
    device.initial_alignment = zero ? rtm::InitialAlignment::kZero
                                    : rtm::InitialAlignment::kFirstAccess;
    online::OnlineConfig config;
    config.reseed_strategy = "seeded-random";
    config.detector.kind = online::DetectorKind::kNone;
    config.refine = true;
    config.window_accesses = window_size;
    core::CostOptions& cost = config.strategy_options.cost;
    cost.initial_alignment = device.initial_alignment;
    const std::uint64_t margin =
        online::EstimatedSingleMoveShifts(device.domains_per_dbc);

    // Each window draws three quarters of its accesses from a small hot
    // set, so repeated transitions make some moves pay.
    std::vector<std::string> names;
    for (std::size_t v = 0; v < n; ++v) {
      std::string name = "v";
      name += std::to_string(v);
      names.push_back(std::move(name));
    }
    online::OnlineEngine engine(config, device);
    for (const std::string& name : names) (void)engine.RegisterVariable(name);
    core::Placement expected{0, 1};
    std::size_t expected_evaluations = 0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      trace::AccessSequence window;
      for (const std::string& name : names) window.AddVariable(name);
      std::vector<trace::VariableId> hot_set;
      for (int i = 0; i < 4; ++i) {
        hot_set.push_back(static_cast<trace::VariableId>(gen.NextBelow(n)));
      }
      while (window.size() < window_size) {
        window.Append(gen.NextBool(0.75)
                          ? hot_set[gen.NextBelow(hot_set.size())]
                          : static_cast<trace::VariableId>(gen.NextBelow(n)));
      }
      engine.Feed(std::span<const trace::Access>(window.accesses()));
      if (w == 0) {
        util::Rng rng(config.strategy_options.rw.seed);
        expected = core::RandomPlacement(n, q, domains, rng);
        expected_evaluations += 1;  // the re-seed strategy's own count
      } else {
        expected = ReplayGreedy(window, std::move(expected), cost, margin,
                                expected_evaluations);
      }
      SCOPED_TRACE(testing::Message()
                   << "round " << round << " window " << w << " q=" << q
                   << " K=" << domains << " n=" << n << " zero=" << zero);
      ASSERT_EQ(engine.placement(), expected);
      ASSERT_EQ(engine.Windows().back().window_cost,
                core::ShiftCost(window, expected, cost));
    }
    const online::OnlineResult result = engine.Finish();
    EXPECT_EQ(result.evaluations, expected_evaluations) << "round " << round;
    migrations += result.migrations;
  }
  EXPECT_GT(migrations, 20u);  // the grid commits moves, not only refusals
}

// ---- engine edge cases ---------------------------------------------------

TEST(OnlineEngine, GrowsThePlacementForStreamedNewVariables) {
  const rtm::RtmConfig config = sim::CellConfig(4, 16);
  online::OnlineConfig online_config = SingleWindowConfig("dma-sr", config);
  online_config.window_accesses = 4;

  online::OnlineEngine engine(online_config, config);
  // Window 0 sees {a, b}; later windows introduce c..h, each registered
  // just before its first access.
  const char* names[] = {"a", "b", "a", "b", "c", "d", "c", "a",
                         "e", "f", "g", "h", "a", "e", "h", "b"};
  for (const char* name : names) {
    const trace::Access access{engine.RegisterVariable(name),
                               trace::AccessType::kRead};
    engine.Feed(std::span<const trace::Access>(&access, 1));
  }
  const online::OnlineResult result = engine.Finish();
  EXPECT_EQ(result.final_placement.num_variables(), 8u);
  EXPECT_TRUE(result.final_placement.IsComplete());
  result.final_placement.CheckInvariants();
  EXPECT_EQ(result.reads, 16u + result.migration_accesses);
}

TEST(OnlineEngine, EmptySessionStillPlacesOnce) {
  const rtm::RtmConfig config = sim::CellConfig(4, 4);
  online::OnlineEngine engine(SingleWindowConfig("dma-sr", config), config);
  const online::OnlineResult result = engine.Finish();
  EXPECT_EQ(result.windows.size(), 1u);
  EXPECT_EQ(result.stats.shifts, 0u);
  EXPECT_EQ(result.amortized_shifts, 0u);
}

TEST(OnlineEngine, RejectsBadConfigsAndDoubleFinish) {
  const rtm::RtmConfig config = sim::CellConfig(4, 4);
  {
    online::OnlineConfig bad = SingleWindowConfig("no-such-strategy", config);
    EXPECT_THROW(online::OnlineEngine(bad, config), std::invalid_argument);
  }
  {
    online::OnlineConfig bad = SingleWindowConfig("dma-sr", config);
    bad.window_accesses = 0;
    EXPECT_THROW(online::OnlineEngine(bad, config), std::invalid_argument);
  }
  online::OnlineEngine engine(SingleWindowConfig("dma-sr", config), config);
  const trace::Access access{engine.RegisterVariable("a"),
                             trace::AccessType::kRead};
  (void)engine.Finish();
  EXPECT_THROW((void)engine.Finish(), std::logic_error);
  EXPECT_THROW(engine.Feed(std::span<const trace::Access>(&access, 1)),
               std::logic_error);
  // An empty block after Finish() throws too.
  EXPECT_THROW(engine.Feed(std::span<const trace::Access>()),
               std::logic_error);
}

TEST(OnlineEngine, BatchedFeedRejectsOffsetIdsThatWrap) {
  // 0xFFFFFFFF + 1 wraps to 0, a registered id: the offset feed must
  // throw instead of serving it as variable 0 — on the buffered route
  // (first window, nothing placed yet) and on the direct-serve route
  // (placement settled, whole windows served in place).
  const rtm::RtmConfig config = sim::CellConfig(4, 4);
  online::OnlineConfig cfg = SingleWindowConfig("dma-sr", config);
  cfg.window_accesses = 2;
  online::OnlineEngine engine(cfg, config);
  for (const char* name : {"a", "b", "c", "d"}) {
    (void)engine.RegisterVariable(name);
  }
  const std::vector<trace::Access> wraps = {
      {0, trace::AccessType::kRead}, {0xFFFFFFFFu, trace::AccessType::kRead}};
  EXPECT_THROW(engine.Feed(wraps, /*id_offset=*/1), std::out_of_range);
  const std::vector<trace::Access> ok = {{0, trace::AccessType::kRead},
                                         {1, trace::AccessType::kRead}};
  engine.Feed(ok, /*id_offset=*/2);
  EXPECT_EQ(engine.Windows().size(), 1u);
  EXPECT_THROW(engine.Feed(wraps, /*id_offset=*/1), std::out_of_range);
  // An offset past the registered space rejects even id 0.
  EXPECT_THROW(engine.Feed(ok, /*id_offset=*/9), std::out_of_range);
  const online::OnlineResult result = engine.Finish();
  EXPECT_EQ(result.reads, 2u);
}

}  // namespace
