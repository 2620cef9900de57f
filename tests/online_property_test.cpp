// Property layer over the online engine: invariants that must hold for
// EVERY online run, not just the pinned oracles.
//
//  * Controller shift-time accounting under migration traffic:
//    hidden + exposed == shift_busy and channel_busy <= makespan, in
//    serial AND proactive mode, with migrations interleaved into the
//    request stream (the regime PR 2's controller fix must survive).
//  * Windowed determinism: the engine is bit-identical at a fixed seed,
//    and online cells in RunMatrix are invariant under RTMPLACE_THREADS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "online/engine.h"
#include "online/online_cell.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

/// The grid every property below runs over: phased (migration-heavy)
/// and stationary workloads x the built-in policy shapes.
const std::vector<std::string>& PropertyWorkloads() {
  static const std::vector<std::string> workloads = {
      "phased(gemm-tiled,bfs-frontier,stream-scan)",
      "phased(stencil,fft-butterfly)",
      "kv-churn",
  };
  return workloads;
}

const std::vector<std::string>& PropertyPolicies() {
  static const std::vector<std::string> policies = {
      "online-static-dma-sr",
      "online-fixed-dma-sr",
      "online-ewma-dma-sr",
      "online-ewma-afd-ofu",
  };
  return policies;
}

std::vector<online::OnlineResult> RunAll(const std::string& workload_name,
                                         const std::string& policy_name,
                                         unsigned dbcs, bool proactive) {
  const auto workload = workloads::ResolveWorkload(workload_name);
  EXPECT_NE(workload, nullptr) << workload_name;
  const auto benchmark = workload->Generate({});
  const auto policy =
      online::OnlinePolicyRegistry::Global().Find(policy_name);
  EXPECT_NE(policy, nullptr) << policy_name;
  // The registered recipe with the controller mode under test.
  online::OnlineConfig config = policy->MakeConfig();
  config.controller.proactive_alignment = proactive;
  const online::OnlinePolicy variant(policy->Describe(), config);

  sim::ExperimentOptions options;
  std::vector<online::OnlineResult> results;
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const auto& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    results.push_back(online::RunOnlineSequence(seq, s, dbcs, variant,
                                                options, benchmark.name)
                          .result);
  }
  return results;
}

TEST(OnlineControllerInvariants, HoldForEveryRunIncludingMigrations) {
  bool saw_migration = false;
  for (const bool proactive : {false, true}) {
    for (const auto& workload : PropertyWorkloads()) {
      for (const auto& policy : PropertyPolicies()) {
        for (const unsigned dbcs : {4u, 16u}) {
          const auto results = RunAll(workload, policy, dbcs, proactive);
          for (const auto& result : results) {
            saw_migration |= result.migrations > 0;
            const rtm::ControllerStats& stats = result.stats;
            // Shift-time split: every shifted nanosecond is either
            // hidden behind the channel or exposed stall.
            EXPECT_NEAR(
                stats.hidden_shift_ns + stats.exposed_shift_ns,
                stats.shift_busy_ns,
                1e-6 * std::max(1.0, stats.shift_busy_ns))
                << workload << "/" << policy << "/" << dbcs
                << (proactive ? "/proactive" : "/serial");
            // The shared channel cannot be busy longer than the run.
            EXPECT_LE(stats.channel_busy_ns,
                      stats.makespan_ns * (1.0 + 1e-9))
                << workload << "/" << policy << "/" << dbcs
                << (proactive ? "/proactive" : "/serial");
            // Shift bookkeeping closes: controller total == engine split.
            EXPECT_EQ(stats.shifts,
                      result.service_shifts + result.migration_shifts);
            EXPECT_EQ(result.amortized_shifts, stats.shifts);
            // Serial mode hides nothing.
            if (!proactive) {
              EXPECT_DOUBLE_EQ(stats.hidden_shift_ns, 0.0);
            }
          }
        }
      }
    }
  }
  // The property run must actually exercise the migration path.
  EXPECT_TRUE(saw_migration);
}

TEST(OnlineDeterminism, BitIdenticalAtAFixedSeed) {
  for (const auto& workload : PropertyWorkloads()) {
    const auto a = RunAll(workload, "online-ewma-dma-sr", 4, false);
    const auto b = RunAll(workload, "online-ewma-dma-sr", 4, false);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].stats.shifts, b[i].stats.shifts);
      EXPECT_EQ(a[i].migrations, b[i].migrations);
      EXPECT_EQ(a[i].migrated_vars, b[i].migrated_vars);
      EXPECT_EQ(a[i].migration_shifts, b[i].migration_shifts);
      EXPECT_EQ(a[i].placement_cost, b[i].placement_cost);
      EXPECT_EQ(a[i].evaluations, b[i].evaluations);
      EXPECT_TRUE(a[i].final_placement == b[i].final_placement);
      ASSERT_EQ(a[i].windows.size(), b[i].windows.size());
      for (std::size_t w = 0; w < a[i].windows.size(); ++w) {
        EXPECT_EQ(a[i].windows[w].service_shifts,
                  b[i].windows[w].service_shifts);
        EXPECT_EQ(a[i].windows[w].migration_shifts,
                  b[i].windows[w].migration_shifts);
        EXPECT_EQ(a[i].windows[w].phase_change,
                  b[i].windows[w].phase_change);
      }
    }
  }
}

TEST(OnlineDeterminism, MatrixCellsInvariantUnderThreadCount) {
  sim::ExperimentOptions options;
  options.dbc_counts = {4, 8};
  options.strategies = {};
  options.extra_strategies = {"dma-sr", "online-fixed-dma-sr",
                              "online-ewma-dma-sr"};

  const std::vector<std::string> specs = {
      "phased(gemm-tiled,stream-scan)", "hash-join"};

  options.num_threads = 1;
  const auto serial = sim::RunMatrix(specs, options);

  ASSERT_EQ(setenv("RTMPLACE_THREADS", "3", /*overwrite=*/1), 0);
  options.num_threads = sim::ThreadCountFromEnv(1);
  EXPECT_EQ(options.num_threads, 3u);
  const auto parallel = sim::RunMatrix(specs, options);
  ASSERT_EQ(unsetenv("RTMPLACE_THREADS"), 0);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    EXPECT_EQ(serial[i].strategy_name, parallel[i].strategy_name);
    EXPECT_EQ(serial[i].metrics.shifts, parallel[i].metrics.shifts);
    EXPECT_EQ(serial[i].metrics.accesses, parallel[i].metrics.accesses);
    EXPECT_EQ(serial[i].placement_cost, parallel[i].placement_cost);
    EXPECT_EQ(serial[i].search_evaluations,
              parallel[i].search_evaluations);
    EXPECT_DOUBLE_EQ(serial[i].metrics.runtime_ns,
                     parallel[i].metrics.runtime_ns);
  }
}

}  // namespace
