// Property layer over the cache tier: invariants that must hold for
// EVERY hybrid-memory run, not just the pinned oracles.
//
//  * Conservation — hits + misses == accesses, fills and writebacks
//    bounded by misses, and the controller total decomposes exactly:
//    stats.shifts == service + migration + fill shifts; the resident
//    set never exceeds the capacity.
//  * Determinism — reruns are bit-identical at a fixed seed (including
//    the randomized cache-sample policy), and cache cells in RunMatrix
//    are invariant under RTMPLACE_THREADS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

const std::vector<std::string>& PropertyWorkloads() {
  static const std::vector<std::string> workloads = {
      "pointer-chase",
      "kv-churn",
      "phased(gemm-tiled,stream-scan)",
  };
  return workloads;
}

const std::vector<std::string>& PropertyEvictions() {
  static const std::vector<std::string> evictions = {
      "cache-lru", "cache-lfu", "cache-sample", "cache-shift-aware"};
  return evictions;
}

cache::CacheConfig PropertyConfig(const std::string& eviction, double ratio) {
  cache::CacheConfig config;
  config.eviction = eviction;
  config.capacity_ratio = ratio;
  config.eviction_seed = 0xC0FFEE;
  config.engine.reseed_strategy = "dma-sr";
  config.engine.window_accesses = 64;
  config.engine.detector.kind = online::DetectorKind::kFixedWindow;
  config.engine.detector.period = 1;
  return config;
}

/// Pre-registers the whole variable space and feeds every access — the
/// RunCache recipe, inlined so the engine stays inspectable (resident()
/// and capacity() are engine accessors, consumed by Finish()).
cache::CacheResult RunInspected(const trace::AccessSequence& seq,
                                cache::CacheConfig config,
                                const rtm::RtmConfig& device,
                                std::size_t* capacity_out) {
  config.capacity_slots = cache::ResolveCapacity(config, seq.num_variables());
  cache::CacheEngine engine(config, device);
  for (trace::VariableId v = 0;
       v < static_cast<trace::VariableId>(seq.num_variables()); ++v) {
    (void)engine.RegisterVariable(seq.name_of(v));
  }
  EXPECT_LE(engine.resident(), engine.capacity());
  engine.Feed(seq.accesses());
  EXPECT_LE(engine.resident(), engine.capacity());
  *capacity_out = engine.capacity();
  return engine.Finish();
}

TEST(CacheConservation, HoldsForEveryPolicyAndCapacity) {
  bool saw_miss = false;
  for (const std::string& workload_name : PropertyWorkloads()) {
    const auto workload = workloads::ResolveWorkload(workload_name);
    ASSERT_NE(workload, nullptr) << workload_name;
    const auto benchmark = workload->Generate({});
    for (const std::string& eviction : PropertyEvictions()) {
      for (const double ratio : {0.25, 0.5, 1.0}) {
        for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
          const auto& seq = benchmark.sequences[s];
          if (seq.num_variables() == 0) continue;
          const cache::CacheConfig config = PropertyConfig(eviction, ratio);
          const rtm::RtmConfig device = sim::CellConfig(
              4, cache::ResolveCapacity(config, seq.num_variables()));
          std::size_t capacity = 0;
          const cache::CacheResult result =
              RunInspected(seq, config, device, &capacity);
          const std::string label = workload_name + "/" + eviction + "/" +
                                    std::to_string(ratio) + "/seq" +
                                    std::to_string(s);

          const cache::CacheStats& c = result.cache;
          saw_miss |= c.misses > 0;
          EXPECT_EQ(c.accesses, seq.size()) << label;
          EXPECT_EQ(c.hits + c.misses, c.accesses) << label;
          EXPECT_EQ(c.fills, c.misses) << label;
          EXPECT_LE(c.writebacks, c.misses) << label;
          // One device request per transfer: a read per writeback, a
          // write per fill (frames unplaced at hook time excepted —
          // frames are pre-registered, so there are none).
          EXPECT_EQ(c.fill_accesses, c.fills + c.writebacks) << label;
          // Backing-store terms follow the transfer counts linearly.
          EXPECT_DOUBLE_EQ(
              c.backing_ns,
              static_cast<double>(c.fills) * cache::kBackingFillNs +
                  static_cast<double>(c.writebacks) *
                      cache::kBackingWritebackNs)
              << label;

          // The decomposition invariant: every controller shift is
          // service, migration or fill — nothing double-counted,
          // nothing dropped.
          const online::OnlineResult& online = result.online;
          EXPECT_EQ(online.stats.shifts, online.service_shifts +
                                             online.migration_shifts +
                                             c.fill_shifts)
              << label;
          if (ratio >= 1.0) {
            EXPECT_EQ(c.misses, 0u) << label;
            EXPECT_EQ(c.fill_shifts, 0u) << label;
          }
        }
      }
    }
  }
  // The property run must actually exercise the miss path.
  EXPECT_TRUE(saw_miss);
}

TEST(CacheDeterminism, BitIdenticalAtAFixedSeed) {
  const auto workload = workloads::ResolveWorkload("kv-churn");
  ASSERT_NE(workload, nullptr);
  const auto benchmark = workload->Generate({});
  const auto& seq = benchmark.sequences[0];
  ASSERT_GT(seq.num_variables(), 0u);

  for (const std::string& eviction : PropertyEvictions()) {
    cache::CacheConfig config = PropertyConfig(eviction, 0.5);
    config.record_events = true;
    const rtm::RtmConfig device =
        sim::CellConfig(4, cache::ResolveCapacity(config, seq.num_variables()));
    const cache::CacheResult a = cache::RunCache(seq, config, device);
    const cache::CacheResult b = cache::RunCache(seq, config, device);

    EXPECT_EQ(a.cache.hits, b.cache.hits) << eviction;
    EXPECT_EQ(a.cache.misses, b.cache.misses) << eviction;
    EXPECT_EQ(a.cache.writebacks, b.cache.writebacks) << eviction;
    EXPECT_EQ(a.cache.fill_shifts, b.cache.fill_shifts) << eviction;
    EXPECT_EQ(a.online.stats.shifts, b.online.stats.shifts) << eviction;
    EXPECT_TRUE(a.online.final_placement == b.online.final_placement)
        << eviction;
    // The whole classified event stream, not just the totals.
    EXPECT_TRUE(a.events == b.events) << eviction;
  }
}

TEST(CacheDeterminism, MatrixCellsInvariantUnderThreadCount) {
  sim::ExperimentOptions options;
  options.dbc_counts = {4, 8};
  options.strategies = {};
  options.extra_strategies = {"cache-lru-c50", "cache-sample-c50",
                              "cache-shift-aware-c25"};

  const std::vector<std::string> specs = {"pointer-chase", "kv-churn"};

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
    EXPECT_DOUBLE_EQ(serial[i].metrics.runtime_ns,
                     parallel[i].metrics.runtime_ns);
  }
}

}  // namespace
