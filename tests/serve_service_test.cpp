// Correctness oracles of the multi-tenant placement service (ISSUE 6).
//
//  * Oracle: one tenant on one shard with an unlimited budget is
//    bit-identical to a bare OnlineEngine run of the same configuration
//    — same placements, same shift counts, same makespan — both at the
//    engine level and through sim::RunCell.
//  * Conservation: per-tenant attribution (shifts, accesses, requests,
//    energy) sums back to the device totals.
//  * QoS: the shared migration budget never overspends its grant, and
//    denials are attributed to the tenants whose turns suffered them.
//  * Determinism: serve cells are invariant under the RunMatrix thread
//    count.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/strategy_registry.h"
#include "offsetstone/suite.h"
#include "online/engine.h"
#include "online/policy.h"
#include "serve/serve_cell.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/stats.h"
#include "util/strings.h"
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

/// Adaptive engine recipe: re-seed every other window (forced accepts)
/// and refine in between, so the oracle covers migration, refinement and
/// service traffic.
online::OnlineConfig AdaptiveConfig(const rtm::RtmConfig& config) {
  online::OnlineConfig online;
  online.reseed_strategy = "dma-sr";
  online.window_accesses = 128;
  online.detector.kind = online::DetectorKind::kFixedWindow;
  online.detector.period = 2;
  online.always_accept_reseed = true;
  online.refine = true;
  online.strategy_options.cost.initial_alignment = config.initial_alignment;
  return online;
}

// ---- oracle: single tenant x single shard == bare engine -----------------

TEST(ServeOracle, SingleTenantSingleShardIsBitIdenticalToBareEngine) {
  const trace::AccessSequence seq =
      WorkloadSequence("phased(gemm-tiled,stream-scan)", 1);
  const rtm::RtmConfig config = sim::CellConfig(4, seq.num_variables());
  const online::OnlineConfig engine_config = AdaptiveConfig(config);

  const online::OnlineResult bare =
      online::RunOnline(seq, engine_config, config);
  ASSERT_GT(bare.windows.size(), 1u);
  EXPECT_GT(bare.migrations, 0u);

  serve::ServeConfig serve_config;
  serve_config.num_shards = 1;
  serve_config.engine = engine_config;
  serve::PlacementService service(serve_config, config);
  ASSERT_EQ(service.OpenSession("t0", seq), 0u);
  const serve::ServeResult result = service.Run();

  EXPECT_EQ(result.total_shifts, bare.amortized_shifts);
  EXPECT_EQ(result.service_shifts, bare.service_shifts);
  EXPECT_EQ(result.migration_shifts, bare.migration_shifts);
  EXPECT_EQ(result.reads, bare.reads);
  EXPECT_EQ(result.writes, bare.writes);
  EXPECT_EQ(result.migrations, bare.migrations);
  EXPECT_EQ(result.migrated_vars, bare.migrated_vars);
  EXPECT_EQ(result.placement_cost, bare.placement_cost);
  EXPECT_EQ(result.evaluations, bare.evaluations);
  // Shared-channel arithmetic is identical to the private timeline, so
  // the makespan is bit-equal, not merely close.
  EXPECT_DOUBLE_EQ(result.makespan_ns, bare.stats.makespan_ns);
  EXPECT_DOUBLE_EQ(result.energy.total_pj(), bare.energy.total_pj());

  ASSERT_EQ(result.shards.size(), 1u);
  const online::OnlineResult& shard = result.shards[0].result;
  EXPECT_EQ(shard.stats.shifts, bare.stats.shifts);
  EXPECT_EQ(shard.stats.requests, bare.stats.requests);
  EXPECT_EQ(shard.windows.size(), bare.windows.size());
  EXPECT_EQ(shard.final_placement, bare.final_placement);

  ASSERT_EQ(result.tenants.size(), 1u);
  const serve::TenantStats& tenant = result.tenants[0];
  EXPECT_EQ(tenant.accesses, seq.size());
  EXPECT_EQ(tenant.windows, bare.windows.size());
  EXPECT_EQ(tenant.service_shifts + tenant.migration_shifts,
            bare.amortized_shifts);
  double bare_latency = 0.0;
  for (const online::WindowRecord& record : bare.windows) {
    bare_latency += record.latency_ns;
  }
  EXPECT_DOUBLE_EQ(tenant.exposed_latency_ns, bare_latency);
  // One tenant is trivially fair.
  EXPECT_DOUBLE_EQ(result.fairness, 1.0);
}

TEST(ServeOracle, ServeStaticCellMatchesOnlineStaticCellExactly) {
  // The registry-level oracle through the very path RunMatrix uses. A
  // single-sequence benchmark so the serve cell's one tenant sees the
  // same device as the online cell's one session.
  offsetstone::Benchmark benchmark;
  benchmark.name = "hash-join";
  benchmark.sequences.push_back(WorkloadSequence("hash-join"));
  sim::ExperimentOptions options;

  const sim::RunResult online_cell =
      sim::RunCell(benchmark, 4, "online-static-dma-sr", options);
  const sim::RunResult serve_cell =
      sim::RunCell(benchmark, 4, "serve-1s-static-dma-sr", options);

  EXPECT_EQ(serve_cell.metrics.shifts, online_cell.metrics.shifts);
  EXPECT_EQ(serve_cell.metrics.accesses, online_cell.metrics.accesses);
  EXPECT_EQ(serve_cell.placement_cost, online_cell.placement_cost);
  EXPECT_EQ(serve_cell.search_evaluations, online_cell.search_evaluations);
  EXPECT_NEAR(serve_cell.metrics.runtime_ns, online_cell.metrics.runtime_ns,
              1e-9 * online_cell.metrics.runtime_ns);
  EXPECT_DOUBLE_EQ(serve_cell.metrics.shift_pj,
                   online_cell.metrics.shift_pj);
  EXPECT_NEAR(serve_cell.metrics.leakage_pj, online_cell.metrics.leakage_pj,
              1e-9 * online_cell.metrics.leakage_pj);
  EXPECT_EQ(serve_cell.strategy_name, "serve-1s-static-dma-sr");
}

// ---- conservation: tenant attribution sums to device totals --------------

TEST(ServeConservation, TenantTotalsSumToDeviceTotals) {
  const std::vector<std::string> workloads = {
      "gemm-tiled", "kv-churn", "stencil", "stream-scan", "gsm"};
  std::vector<trace::AccessSequence> sequences;
  std::size_t total_vars = 0;
  std::size_t total_accesses = 0;
  for (const std::string& name : workloads) {
    sequences.push_back(WorkloadSequence(name));
    total_vars += sequences.back().num_variables();
    total_accesses += sequences.back().size();
  }
  const rtm::RtmConfig config = sim::CellConfig(8, total_vars);

  serve::ServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.budget.shifts_per_window = 128;
  serve_config.engine = AdaptiveConfig(config);
  serve_config.engine.window_accesses = 64;
  serve::PlacementService service(serve_config, config);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    (void)service.OpenSession("tenant" + std::to_string(i), sequences[i]);
  }
  const serve::ServeResult result = service.Run();

  std::uint64_t tenant_shifts = 0;
  std::uint64_t tenant_accesses = 0;
  std::uint64_t tenant_requests = 0;
  std::uint64_t tenant_cost = 0;
  std::size_t tenant_denials = 0;
  rtm::EnergyBreakdown tenant_energy;
  for (const serve::TenantStats& tenant : result.tenants) {
    tenant_shifts += tenant.service_shifts + tenant.migration_shifts;
    tenant_accesses += tenant.accesses;
    tenant_requests += tenant.device_requests;
    tenant_cost += tenant.placement_cost;
    tenant_denials += tenant.budget_denials;
    tenant_energy.leakage_pj += tenant.energy.leakage_pj;
    tenant_energy.read_write_pj += tenant.energy.read_write_pj;
    tenant_energy.shift_pj += tenant.energy.shift_pj;
    EXPECT_EQ(tenant.reads + tenant.writes, tenant.accesses);
    EXPECT_EQ(tenant.window_latencies.size(), tenant.windows);
  }
  EXPECT_EQ(tenant_shifts, result.total_shifts);
  EXPECT_EQ(tenant_accesses, total_accesses);
  EXPECT_EQ(tenant_cost, result.placement_cost);
  EXPECT_EQ(tenant_denials, result.budget_denials);

  std::uint64_t shard_shifts = 0;
  std::uint64_t shard_requests = 0;
  for (const serve::ShardStats& shard : result.shards) {
    const online::OnlineResult& r = shard.result;
    EXPECT_EQ(r.amortized_shifts, r.service_shifts + r.migration_shifts);
    EXPECT_EQ(r.amortized_shifts, r.stats.shifts);
    shard_shifts += r.stats.shifts;
    shard_requests += r.stats.requests;
  }
  EXPECT_EQ(shard_shifts, result.total_shifts);
  EXPECT_EQ(tenant_requests, shard_requests);

  // Per-turn energy deltas telescope to the shard totals (FP addition
  // order differs, hence NEAR rather than EQ).
  EXPECT_NEAR(tenant_energy.total_pj(), result.energy.total_pj(),
              1e-9 * result.energy.total_pj());

  EXPECT_GT(result.fairness, 0.0);
  EXPECT_LE(result.fairness, 1.0 + 1e-12);
}

TEST(ServeConservation, ReadWriteTalliesMatchTheTraces) {
  // Write-heavy tenants draw reads and writes at random. Each tenant's
  // split, and a static engine's, must equal its trace's exactly, with
  // and without the cache tier (a static engine migrates nothing, so the
  // device counters see only the traces' own accesses).
  std::vector<trace::AccessSequence> sequences;
  std::size_t total_vars = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t total_accesses = 0;
  for (const char* name : {"kv-churn", "hash-join"}) {
    for (std::size_t index = 0; index < 2; ++index) {
      sequences.push_back(WorkloadSequence(name, index));
      total_vars += sequences.back().num_variables();
      total_writes += sequences.back().CountWrites();
      total_accesses += sequences.back().size();
    }
  }
  const rtm::RtmConfig config = sim::CellConfig(8, total_vars);
  const online::OnlineConfig static_config =
      online::OnlinePolicyRegistry::Global()
          .Find("online-static-dma-sr")
          ->MakeConfig();
  for (const trace::AccessSequence& seq : sequences) {
    const std::uint64_t writes = seq.CountWrites();
    ASSERT_GT(writes, seq.size() / 4);
    ASSERT_LT(writes, seq.size());
    const online::OnlineResult result =
        online::RunOnline(seq, static_config, config);
    EXPECT_EQ(result.writes, writes);
    EXPECT_EQ(result.reads, seq.size() - writes);
  }
  for (const bool cache : {false, true}) {
    serve::ServeConfig serve_config;
    serve_config.num_shards = 2;
    serve_config.engine = static_config;
    serve_config.engine.window_accesses = 96;
    serve_config.cache.enabled = cache;
    serve_config.cache.capacity_ratio = 0.5;
    serve::PlacementService service(serve_config, config);
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      (void)service.OpenSession("tenant" + std::to_string(i), sequences[i]);
    }
    const serve::ServeResult result = service.Run();
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const std::uint64_t writes = sequences[i].CountWrites();
      EXPECT_EQ(result.tenants[i].writes, writes) << i << " " << cache;
      EXPECT_EQ(result.tenants[i].reads, sequences[i].size() - writes)
          << i << " " << cache;
    }
    EXPECT_EQ(result.writes, total_writes) << cache;
    EXPECT_EQ(result.reads, total_accesses - total_writes) << cache;
  }
}

TEST(ServeConservation, AccesslessTenantHoldsSlotsButNoChannelTime) {
  const trace::AccessSequence busy = WorkloadSequence("stencil");
  const trace::AccessSequence idle;  // registered, never accessed
  const rtm::RtmConfig config = sim::CellConfig(4, busy.num_variables());

  serve::ServeConfig serve_config;
  serve_config.num_shards = 1;
  serve_config.engine = AdaptiveConfig(config);
  serve::PlacementService service(serve_config, config);
  (void)service.OpenSession("busy", busy);
  (void)service.OpenSession("idle", idle);
  const serve::ServeResult result = service.Run();

  ASSERT_EQ(result.tenants.size(), 2u);
  const serve::TenantStats& idle_stats = result.tenants[1];
  EXPECT_EQ(idle_stats.accesses, 0u);
  EXPECT_EQ(idle_stats.windows, 0u);
  EXPECT_EQ(idle_stats.service_shifts + idle_stats.migration_shifts, 0u);
  EXPECT_DOUBLE_EQ(idle_stats.exposed_latency_ns, 0.0);
  // The busy tenant accounts for the whole device.
  EXPECT_EQ(result.tenants[0].service_shifts +
                result.tenants[0].migration_shifts,
            result.total_shifts);
  // Only tenants that served windows enter the fairness score.
  EXPECT_DOUBLE_EQ(result.fairness, 1.0);
}

// ---- hybrid-memory mode: cache tier under the service --------------------

TEST(ServeCacheOracle, FullCapacityIsBitIdenticalToPlainService) {
  // At capacity ratio 1.0 every shard's cache admits its whole variable
  // population for free, so the wrapped engines see the exact id streams
  // and window boundaries of plain mode — the service with the cache
  // tier enabled must be bit-identical, not merely close.
  const std::vector<std::string> workloads = {"gemm-tiled", "kv-churn",
                                              "stencil", "stream-scan"};
  std::vector<trace::AccessSequence> sequences;
  std::size_t total_vars = 0;
  for (const std::string& name : workloads) {
    sequences.push_back(WorkloadSequence(name));
    total_vars += sequences.back().num_variables();
  }
  const rtm::RtmConfig config = sim::CellConfig(8, total_vars);

  serve::ServeConfig plain_config;
  plain_config.num_shards = 2;
  plain_config.budget.shifts_per_window = 128;
  plain_config.engine = AdaptiveConfig(config);
  plain_config.engine.window_accesses = 64;

  serve::ServeConfig cache_config = plain_config;
  cache_config.cache.enabled = true;
  cache_config.cache.eviction = "cache-shift-aware";
  cache_config.cache.capacity_ratio = 1.0;

  serve::PlacementService plain(plain_config, config);
  serve::PlacementService cached(cache_config, config);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const std::string name = "tenant" + std::to_string(i);
    (void)plain.OpenSession(name, sequences[i]);
    (void)cached.OpenSession(name, sequences[i]);
  }
  const serve::ServeResult a = plain.Run();
  const serve::ServeResult b = cached.Run();

  EXPECT_EQ(b.total_shifts, a.total_shifts);
  EXPECT_EQ(b.service_shifts, a.service_shifts);
  EXPECT_EQ(b.migration_shifts, a.migration_shifts);
  EXPECT_EQ(b.reads, a.reads);
  EXPECT_EQ(b.writes, a.writes);
  EXPECT_EQ(b.migrations, a.migrations);
  EXPECT_EQ(b.migrated_vars, a.migrated_vars);
  EXPECT_EQ(b.placement_cost, a.placement_cost);
  EXPECT_EQ(b.evaluations, a.evaluations);
  EXPECT_EQ(b.budget_denials, a.budget_denials);
  EXPECT_DOUBLE_EQ(b.makespan_ns, a.makespan_ns);
  EXPECT_DOUBLE_EQ(b.energy.total_pj(), a.energy.total_pj());
  EXPECT_DOUBLE_EQ(b.fairness, a.fairness);

  ASSERT_EQ(b.shards.size(), a.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const online::OnlineResult& pr = a.shards[s].result;
    const online::OnlineResult& cr = b.shards[s].result;
    EXPECT_EQ(cr.stats.shifts, pr.stats.shifts) << s;
    EXPECT_EQ(cr.stats.requests, pr.stats.requests) << s;
    EXPECT_EQ(cr.windows.size(), pr.windows.size()) << s;
    EXPECT_EQ(cr.final_placement, pr.final_placement) << s;
    EXPECT_EQ(b.shards[s].cache.misses, 0u) << s;
    EXPECT_EQ(b.shards[s].cache.fill_shifts, 0u) << s;
  }

  ASSERT_EQ(b.tenants.size(), a.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const serve::TenantStats& pt = a.tenants[t];
    const serve::TenantStats& ct = b.tenants[t];
    EXPECT_EQ(ct.accesses, pt.accesses) << t;
    EXPECT_EQ(ct.service_shifts, pt.service_shifts) << t;
    EXPECT_EQ(ct.migration_shifts, pt.migration_shifts) << t;
    EXPECT_EQ(ct.device_requests, pt.device_requests) << t;
    EXPECT_EQ(ct.windows, pt.windows) << t;
    EXPECT_EQ(ct.placement_cost, pt.placement_cost) << t;
    EXPECT_DOUBLE_EQ(ct.exposed_latency_ns, pt.exposed_latency_ns) << t;
    // The oracle never misses: every access is a recorded hit.
    EXPECT_EQ(ct.cache.hits, ct.accesses) << t;
    EXPECT_EQ(ct.cache.misses, 0u) << t;
  }
  // Every logical access flows through the cache tier exactly once.
  // (result.reads/writes are device counters and also include the
  // migration sweeps this adaptive recipe issues, so compare against
  // the submitted traces, not the device.)
  std::uint64_t logical_accesses = 0;
  for (const trace::AccessSequence& seq : sequences) {
    logical_accesses += seq.size();
  }
  EXPECT_EQ(b.cache.accesses, logical_accesses);
  EXPECT_EQ(b.cache.misses, 0u);
  EXPECT_EQ(b.cache.fill_shifts, 0u);
}

TEST(ServeCacheConservation, SharedEvictionsConserveAndSumAcrossTenants) {
  const std::vector<std::string> workloads = {"gemm-tiled", "kv-churn",
                                              "stream-scan"};
  std::vector<trace::AccessSequence> sequences;
  std::size_t total_vars = 0;
  for (const std::string& name : workloads) {
    sequences.push_back(WorkloadSequence(name));
    total_vars += sequences.back().num_variables();
  }
  const rtm::RtmConfig config = sim::CellConfig(4, total_vars);

  serve::ServeConfig serve_config;
  serve_config.num_shards = 1;
  serve_config.engine = AdaptiveConfig(config);
  serve_config.engine.window_accesses = 64;
  serve_config.cache.enabled = true;
  serve_config.cache.eviction = "cache-lru";
  serve_config.cache.capacity_ratio = 0.5;

  serve::PlacementService service(serve_config, config);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    (void)service.OpenSession("tenant" + std::to_string(i), sequences[i]);
  }
  const serve::ServeResult result = service.Run();

  // The constrained run must actually exercise the miss path...
  EXPECT_GT(result.cache.misses, 0u);
  EXPECT_EQ(result.cache.fills, result.cache.misses);
  EXPECT_EQ(result.cache.hits + result.cache.misses, result.cache.accesses);
  // ...and the controller total decomposes exactly: service, migration
  // and backing-store fill sweeps, nothing else.
  EXPECT_EQ(result.total_shifts, result.service_shifts +
                                     result.migration_shifts +
                                     result.cache.fill_shifts);
  ASSERT_EQ(result.shards.size(), 1u);
  const serve::ShardStats& shard = result.shards[0];
  EXPECT_EQ(shard.result.stats.shifts, shard.result.service_shifts +
                                           shard.result.migration_shifts +
                                           shard.cache.fill_shifts);
  EXPECT_EQ(shard.cache.misses, result.cache.misses);

  // Per-tenant cache attribution telescopes to the service totals.
  cache::CacheStats sum;
  for (const serve::TenantStats& tenant : result.tenants) {
    EXPECT_EQ(tenant.cache.accesses, tenant.accesses);
    EXPECT_GT(tenant.cache.misses, 0u);
    sum.accesses += tenant.cache.accesses;
    sum.hits += tenant.cache.hits;
    sum.misses += tenant.cache.misses;
    sum.fills += tenant.cache.fills;
    sum.writebacks += tenant.cache.writebacks;
    sum.fill_shifts += tenant.cache.fill_shifts;
    sum.fill_accesses += tenant.cache.fill_accesses;
    sum.backing_ns += tenant.cache.backing_ns;
  }
  EXPECT_EQ(sum.accesses, result.cache.accesses);
  EXPECT_EQ(sum.hits, result.cache.hits);
  EXPECT_EQ(sum.misses, result.cache.misses);
  EXPECT_EQ(sum.fills, result.cache.fills);
  EXPECT_EQ(sum.writebacks, result.cache.writebacks);
  EXPECT_EQ(sum.fill_shifts, result.cache.fill_shifts);
  EXPECT_EQ(sum.fill_accesses, result.cache.fill_accesses);
  EXPECT_NEAR(sum.backing_ns, result.cache.backing_ns,
              1e-9 * result.cache.backing_ns);
}

// ---- migration budget ----------------------------------------------------

TEST(MigrationBudget, TokenBucketRefillsConsumesAndCaps) {
  serve::MigrationBudget budget({/*shifts_per_window=*/10});
  EXPECT_FALSE(budget.unlimited());
  EXPECT_FALSE(budget.TryConsume(1));  // nothing granted yet
  budget.RefillForWindow();
  EXPECT_EQ(budget.granted(), 10u);
  EXPECT_TRUE(budget.TryConsume(4));
  EXPECT_EQ(budget.spent(), 4u);
  EXPECT_EQ(budget.balance(), 6u);
  for (int i = 0; i < 4; ++i) budget.RefillForWindow();
  EXPECT_EQ(budget.granted(), 50u);
  // Capped at shifts_per_window * kBurstWindows (4 windows).
  EXPECT_EQ(serve::kBurstWindows, 4u);
  EXPECT_EQ(budget.balance(), 40u);
  EXPECT_FALSE(budget.TryConsume(45));
  EXPECT_TRUE(budget.TryConsume(40));
  EXPECT_EQ(budget.spent(), 44u);
  EXPECT_EQ(budget.balance(), 0u);
  EXPECT_LE(budget.spent(), budget.granted());
}

TEST(MigrationBudget, UnlimitedAdmitsEverythingAndTracksSpending) {
  serve::MigrationBudget budget({/*shifts_per_window=*/0});
  EXPECT_TRUE(budget.unlimited());
  budget.RefillForWindow();
  EXPECT_EQ(budget.granted(), 0u);
  EXPECT_TRUE(budget.TryConsume(100000));
  EXPECT_EQ(budget.spent(), 100000u);
}

TEST(MigrationBudget, HugeAllowancesSaturateInsteadOfWrapping) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint64_t allowance : {std::uint64_t{1} << 62, kMax}) {
    serve::MigrationBudget budget({allowance});
    budget.RefillForWindow();
    EXPECT_EQ(budget.balance(), allowance) << allowance;
    if (allowance < kMax) {
      EXPECT_FALSE(budget.TryConsume(allowance + 1));
    }
    EXPECT_TRUE(budget.TryConsume(allowance)) << allowance;
    // Four windows' allowance overflows 64 bits: the ceiling, the grant
    // and the spending pin at the maximum, and every window still admits
    // the allowance it adds.
    for (int window = 0; window < 64; ++window) {
      budget.RefillForWindow();
      EXPECT_EQ(budget.balance(), allowance) << allowance;
      EXPECT_TRUE(budget.TryConsume(allowance)) << allowance;
      EXPECT_LE(budget.spent(), budget.granted()) << allowance;
    }
    EXPECT_EQ(budget.granted(), kMax) << allowance;
    EXPECT_EQ(budget.spent(), kMax) << allowance;
    for (int window = 0; window < 8; ++window) budget.RefillForWindow();
    EXPECT_EQ(budget.balance(), kMax) << allowance;
    EXPECT_TRUE(budget.TryConsume(kMax)) << allowance;
    EXPECT_EQ(budget.spent(), kMax) << allowance;
  }
}

TEST(ServeBudget, TightBudgetDeniesButNeverOverspends) {
  const trace::AccessSequence a = WorkloadSequence("gemm-tiled");
  const trace::AccessSequence b = WorkloadSequence("kv-churn");
  const rtm::RtmConfig config =
      sim::CellConfig(4, a.num_variables() + b.num_variables());

  serve::ServeConfig serve_config;
  serve_config.num_shards = 1;
  serve_config.engine = AdaptiveConfig(config);
  serve_config.engine.detector.period = 1;  // re-seed every window
  serve_config.engine.window_accesses = 64;

  serve_config.budget = {/*shifts_per_window=*/1};
  serve::PlacementService tight(serve_config, config);
  (void)tight.OpenSession("a", a);
  (void)tight.OpenSession("b", b);
  const serve::ServeResult tight_result = tight.Run();
  EXPECT_GT(tight_result.budget_denials, 0u);
  EXPECT_LE(tight_result.budget_spent, tight_result.budget_granted);
  std::size_t tenant_denials = 0;
  for (const serve::TenantStats& tenant : tight_result.tenants) {
    tenant_denials += tenant.budget_denials;
  }
  EXPECT_EQ(tenant_denials, tight_result.budget_denials);

  serve_config.budget = {};  // unlimited
  serve::PlacementService loose(serve_config, config);
  (void)loose.OpenSession("a", a);
  (void)loose.OpenSession("b", b);
  const serve::ServeResult loose_result = loose.Run();
  EXPECT_EQ(loose_result.budget_denials, 0u);
  EXPECT_GT(loose_result.migrations, 0u);
  EXPECT_GE(loose_result.migration_shifts, tight_result.migration_shifts);
}

// ---- determinism ---------------------------------------------------------

TEST(ServeDeterminism, MatrixCellsAreThreadCountInvariant) {
  offsetstone::Benchmark benchmark;
  benchmark.name = "mtmix";
  benchmark.sequences.push_back(WorkloadSequence("gemm-tiled"));
  benchmark.sequences.push_back(WorkloadSequence("kv-churn"));
  benchmark.sequences.push_back(WorkloadSequence("stream-scan"));

  sim::ExperimentOptions options;
  options.dbc_counts = {4};
  options.strategies.clear();
  options.extra_strategies = {"serve-1s-static-dma-sr",
                              "serve-2s-tight-ewma-dma-sr"};

  options.num_threads = 1;
  const auto serial = sim::RunMatrix({benchmark}, options);
  options.num_threads = 4;
  const auto parallel = sim::RunMatrix({benchmark}, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].strategy_name, parallel[i].strategy_name);
    EXPECT_EQ(serial[i].metrics.shifts, parallel[i].metrics.shifts);
    EXPECT_EQ(serial[i].metrics.accesses, parallel[i].metrics.accesses);
    EXPECT_EQ(serial[i].placement_cost, parallel[i].placement_cost);
    EXPECT_DOUBLE_EQ(serial[i].metrics.runtime_ns,
                     parallel[i].metrics.runtime_ns);
    EXPECT_DOUBLE_EQ(serial[i].metrics.shift_pj,
                     parallel[i].metrics.shift_pj);
  }
}

// ---- channel arbiter -----------------------------------------------------

TEST(ChannelArbiter, RoundRobinInterleavesDeterministically) {
  serve::ChannelArbiter arbiter({{0, 1}, {2}});
  std::vector<std::size_t> turns;
  for (int i = 0; i < 6; ++i) {
    turns.push_back(arbiter.NextTurn());
  }
  // One turn per shard, round-robin over each shard's tenants.
  EXPECT_EQ(turns, (std::vector<std::size_t>{0, 2, 1, 2, 0, 2}));

  arbiter.Retire(0, 1);
  EXPECT_EQ(arbiter.NextTurn(), 0u);
  EXPECT_EQ(arbiter.NextTurn(), 2u);
  EXPECT_EQ(arbiter.NextTurn(), 0u);
  arbiter.Retire(1, 2);
  EXPECT_EQ(arbiter.NextTurn(), 0u);  // an empty shard is skipped
  arbiter.Retire(0, 0);
  EXPECT_EQ(arbiter.NextTurn(), serve::ChannelArbiter::kDone);
}

// ---- tenant assignment ---------------------------------------------------

trace::AccessSequence CompactSequence(const std::string& compact) {
  return trace::AccessSequence::FromCompactString(compact);
}

TEST(TenantAssignment, RoundRobinCyclesTheShards) {
  const rtm::RtmConfig config = sim::CellConfig(8, 16);
  serve::ServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.engine.reseed_strategy = "dma-sr";
  serve_config.engine.window_accesses = online::kWholeTraceWindow;
  serve::PlacementService service(serve_config, config);
  const std::vector<trace::AccessSequence> seqs = {
      CompactSequence("abab"), CompactSequence("cdcd"),
      CompactSequence("efef"), CompactSequence("ghgh")};
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    (void)service.OpenSession(util::Concat({"t", std::to_string(i)}),
                              seqs[i]);
  }
  const serve::ServeResult result = service.Run();
  ASSERT_EQ(result.tenants.size(), 4u);
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    EXPECT_EQ(result.tenants[i].shard, i % 2) << i;
  }
}

// ---- service validation --------------------------------------------------

TEST(PlacementService, RejectsBadConfigsAndSessionMisuse) {
  const rtm::RtmConfig config = sim::CellConfig(8, 16);
  {
    serve::ServeConfig bad;
    bad.num_shards = 0;
    EXPECT_THROW(serve::PlacementService(bad, config),
                 std::invalid_argument);
  }
  {
    serve::ServeConfig bad;
    bad.num_shards = 3;  // does not divide 8 DBCs
    EXPECT_THROW(serve::PlacementService(bad, config),
                 std::invalid_argument);
  }

  serve::ServeConfig ok;
  ok.engine.window_accesses = online::kWholeTraceWindow;
  serve::PlacementService service(ok, config);
  const trace::AccessSequence seq = CompactSequence("abab");
  EXPECT_THROW((void)service.OpenSession("", seq), std::invalid_argument);
  (void)service.OpenSession("t0", seq);
  EXPECT_THROW((void)service.OpenSession("t0", seq),
               std::invalid_argument);
  (void)service.Run();
  EXPECT_THROW((void)service.Run(), std::logic_error);
  EXPECT_THROW((void)service.OpenSession("t1", seq), std::logic_error);
}

TEST(PlacementService, RejectsARecipeThatSetsTheMigrationGate) {
  // The service gates every shard's migrations through its own budget.
  const rtm::RtmConfig config = sim::CellConfig(8, 16);
  serve::ServeConfig gated;
  gated.engine.migration_gate = [](std::uint64_t) { return true; };
  EXPECT_THROW(serve::PlacementService(gated, config), std::invalid_argument);
  gated.engine.migration_gate = nullptr;
  EXPECT_NO_THROW(serve::PlacementService(gated, config));
}

// ---- serve-policy registry -----------------------------------------------

TEST(ServePolicyRegistry, BuiltinsAreRegisteredAndResolvable) {
  auto& registry = serve::ServePolicyRegistry::Global();
  EXPECT_GE(registry.size(), 12u);
  for (const char* name :
       {"serve-1s-static-dma-sr", "serve-2s-static-dma-sr",
        "serve-4s-static-dma-sr", "serve-1s-ewma-dma-sr",
        "serve-2s-ewma-dma-sr", "serve-4s-ewma-dma-sr",
        "serve-1s-tight-ewma-dma-sr", "serve-2s-tight-ewma-dma-sr",
        "serve-4s-tight-ewma-dma-sr", "serve-1s-loose-ewma-dma-sr",
        "serve-2s-loose-ewma-dma-sr", "serve-4s-loose-ewma-dma-sr"}) {
    ASSERT_TRUE(registry.Contains(name)) << name;
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->name, name);
    // Find() builds the recipe, and the factory throws when the wrapped
    // online policy is unregistered: a non-null result resolved it.
    const auto policy = registry.Find(name);
    ASSERT_NE(policy, nullptr);
    // "serve-<N>s-...": N shards.
    EXPECT_EQ(policy->MakeConfig().num_shards,
              static_cast<unsigned>(name[6] - '0'))
        << name;
  }
  // Case-insensitive, like the other registries.
  EXPECT_TRUE(registry.Contains("Serve-2S-EWMA-DMA-SR"));
}

TEST(ServePolicyRegistry, RejectsCollisionsAndBadNames) {
  serve::ServePolicyRegistry registry;
  const auto factory = [] {
    return std::make_shared<const serve::ServePolicy>(
        util::RecipeInfo{"p", "test"},
        serve::ServeConfig{});
  };
  EXPECT_THROW(registry.Register("has space", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("", factory), std::invalid_argument);
  registry.Register("my-serve-policy", factory);
  EXPECT_THROW(registry.Register("MY-SERVE-POLICY", factory),
               std::invalid_argument);
}

// ---- fairness index ------------------------------------------------------

TEST(JainFairness, MatchesTheClosedForm) {
  EXPECT_DOUBLE_EQ(util::JainFairness({}), 1.0);
  const std::vector<double> equal = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(util::JainFairness(equal), 1.0);
  const std::vector<double> one_hot = {1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(util::JainFairness(one_hot), 0.25);
  const std::vector<double> mixed = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(util::JainFairness(mixed), 0.9);
}

}  // namespace
