// Correctness oracles of the hybrid-memory cache tier (src/cache/).
//
// The differential oracle (ISSUE 9): with capacity >= the working set,
// EVERY eviction policy is a no-op and the CacheEngine is bit-identical
// to the bare online::OnlineEngine on every counter — at the engine
// level and at the sim::RunCell level ("cache-<e>-c100" cells equal the
// "online-fixed-dma-sr" cell). Plus eviction-policy unit checks and the
// registry/validation error surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache_cell.h"
#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "cache/eviction.h"
#include "online/engine.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

const std::vector<std::string>& EvictionPolicies() {
  static const std::vector<std::string> policies = {
      "cache-lru", "cache-lfu", "cache-sample", "cache-shift-aware"};
  return policies;
}

trace::AccessSequence WorkloadSequence(const std::string& name,
                                       std::size_t index = 0) {
  const auto workload = workloads::ResolveWorkload(name);
  EXPECT_NE(workload, nullptr) << name;
  auto benchmark = workload->Generate({});
  EXPECT_GT(benchmark.sequences.size(), index);
  return std::move(benchmark.sequences[index]);
}

/// The engine recipe both sides of the engine-level oracle run: small
/// windows, re-seed weighed at every boundary.
online::OnlineConfig OracleEngineConfig(const rtm::RtmConfig& config) {
  online::OnlineConfig online;
  online.reseed_strategy = "dma-sr";
  online.window_accesses = 64;
  online.detector.kind = online::DetectorKind::kFixedWindow;
  online.detector.period = 1;
  online.strategy_options.cost.initial_alignment = config.initial_alignment;
  return online;
}

void ExpectOnlineResultsEqual(const online::OnlineResult& a,
                              const online::OnlineResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.stats.shifts, b.stats.shifts) << label;
  EXPECT_EQ(a.stats.requests, b.stats.requests) << label;
  EXPECT_EQ(a.service_shifts, b.service_shifts) << label;
  EXPECT_EQ(a.migration_shifts, b.migration_shifts) << label;
  EXPECT_EQ(a.amortized_shifts, b.amortized_shifts) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.migrations, b.migrations) << label;
  EXPECT_EQ(a.migrated_vars, b.migrated_vars) << label;
  EXPECT_EQ(a.placement_cost, b.placement_cost) << label;
  EXPECT_EQ(a.evaluations, b.evaluations) << label;
  EXPECT_DOUBLE_EQ(a.stats.makespan_ns, b.stats.makespan_ns) << label;
  EXPECT_DOUBLE_EQ(a.energy.total_pj(), b.energy.total_pj()) << label;
  EXPECT_TRUE(a.final_placement == b.final_placement) << label;
  ASSERT_EQ(a.windows.size(), b.windows.size()) << label;
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].service_shifts, b.windows[w].service_shifts)
        << label << " window " << w;
    EXPECT_EQ(a.windows[w].migration_shifts, b.windows[w].migration_shifts)
        << label << " window " << w;
    EXPECT_EQ(a.windows[w].replaced, b.windows[w].replaced)
        << label << " window " << w;
    EXPECT_EQ(a.windows[w].window_cost, b.windows[w].window_cost)
        << label << " window " << w;
  }
}

// With capacity == |V| every variable is admitted at registration, no
// miss can occur, and the cache run must equal the bare engine run on
// every counter — for every eviction policy.
TEST(CacheOracle, FullCapacityBitIdenticalToBareEngine) {
  for (const std::string& workload : {std::string("kv-churn"),
                                      std::string("pointer-chase")}) {
    const trace::AccessSequence seq = WorkloadSequence(workload);
    const rtm::RtmConfig config = sim::CellConfig(4, seq.num_variables());
    const online::OnlineResult bare =
        online::RunOnline(seq, OracleEngineConfig(config), config);

    for (const std::string& eviction : EvictionPolicies()) {
      cache::CacheConfig cache_config;
      cache_config.eviction = eviction;
      cache_config.capacity_ratio = 1.0;
      cache_config.engine = OracleEngineConfig(config);
      const cache::CacheResult cached =
          cache::RunCache(seq, cache_config, config);

      const std::string label = workload + "/" + eviction;
      ExpectOnlineResultsEqual(cached.online, bare, label);
      EXPECT_EQ(cached.cache.accesses, seq.size()) << label;
      EXPECT_EQ(cached.cache.hits, seq.size()) << label;
      EXPECT_EQ(cached.cache.misses, 0u) << label;
      EXPECT_EQ(cached.cache.fills, 0u) << label;
      EXPECT_EQ(cached.cache.writebacks, 0u) << label;
      EXPECT_EQ(cached.cache.fill_shifts, 0u) << label;
      EXPECT_DOUBLE_EQ(cached.cache.backing_ns, 0.0) << label;
    }
  }
}

// The same oracle one layer up: a "cache-<e>-c100" experiment cell is
// bit-identical to the "online-fixed-dma-sr" cell (same engine recipe,
// same seeds, same device).
TEST(CacheOracle, FullCapacityCellEqualsOnlineCell) {
  const auto workload = workloads::ResolveWorkload("kv-churn");
  ASSERT_NE(workload, nullptr);
  const auto benchmark = workload->Generate({});
  sim::ExperimentOptions options;

  for (const unsigned dbcs : {4u, 8u}) {
    const sim::RunResult online =
        sim::RunCell(benchmark, dbcs, "online-fixed-dma-sr", options);
    for (const std::string& eviction : EvictionPolicies()) {
      const sim::RunResult cached =
          sim::RunCell(benchmark, dbcs, eviction + "-c100", options);
      const std::string label = eviction + "/" + std::to_string(dbcs);
      EXPECT_EQ(cached.metrics.shifts, online.metrics.shifts) << label;
      EXPECT_EQ(cached.metrics.accesses, online.metrics.accesses) << label;
      EXPECT_EQ(cached.placement_cost, online.placement_cost) << label;
      EXPECT_EQ(cached.search_evaluations, online.search_evaluations)
          << label;
      EXPECT_DOUBLE_EQ(cached.metrics.runtime_ns, online.metrics.runtime_ns)
          << label;
      EXPECT_DOUBLE_EQ(cached.metrics.total_energy_pj(),
                       online.metrics.total_energy_pj())
          << label;
    }
  }
}

/// An EvictionContext over hand-authored frames whose recency view
/// lists exactly `candidates` in (last_use, frame id) order — what the
/// engine's list yields once out-of-scope frames are skipped. The view
/// points into this object, so it is neither copied nor moved; `frames`,
/// `candidates` and `pending` must outlive it.
class RecencyContext : public cache::EvictionContext {
 public:
  RecencyContext(const std::vector<std::uint32_t>& candidates,
                 const std::vector<cache::FrameInfo>& frames,
                 const std::vector<std::uint64_t>& pending,
                 std::uint64_t tick_now)
      : next_(frames.size(), cache::kNoFrame) {
    std::vector<std::uint32_t> order = candidates;
    std::sort(order.begin(), order.end(),
              [&frames](std::uint32_t a, std::uint32_t b) {
                if (frames[a].last_use != frames[b].last_use) {
                  return frames[a].last_use < frames[b].last_use;
                }
                return a < b;
              });
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      next_[order[i]] = order[i + 1];
    }
    this->candidates = candidates;
    this->frames = frames;
    recency_head = order.empty() ? cache::kNoFrame : order.front();
    recency_next = next_;
    placement = nullptr;
    pending_uses = pending;
    tick = tick_now;
  }
  RecencyContext(const RecencyContext&) = delete;
  RecencyContext& operator=(const RecencyContext&) = delete;

 private:
  std::vector<std::uint32_t> next_;
};

/// Builds the context above (returned by guaranteed copy elision).
RecencyContext MakeContext(const std::vector<std::uint32_t>& candidates,
                           const std::vector<cache::FrameInfo>& frames,
                           const std::vector<std::uint64_t>& pending,
                           std::uint64_t tick) {
  return RecencyContext(candidates, frames, pending, tick);
}

std::vector<cache::FrameInfo> OccupiedFrames(
    const std::vector<std::uint64_t>& last_uses,
    const std::vector<std::uint64_t>& uses) {
  std::vector<cache::FrameInfo> frames(last_uses.size());
  for (std::uint32_t f = 0; f < frames.size(); ++f) {
    frames[f].occupant = f;
    frames[f].last_use = last_uses[f];
    frames[f].uses = uses[f];
  }
  return frames;
}

/// A fresh instance of the built-in eviction policy `name`.
std::unique_ptr<cache::EvictionPolicy> CreateEviction(const char* name,
                                                      std::uint64_t seed) {
  return cache::EvictionPolicyRegistry::Global().Find(name)->Create(seed);
}

TEST(EvictionPolicies, LruPicksLeastRecentlyUsed) {
  const auto policy = CreateEviction("cache-lru", 0);
  ASSERT_NE(policy, nullptr);
  const auto frames = OccupiedFrames({7, 3, 9, 5}, {1, 1, 1, 1});
  const std::vector<std::uint32_t> candidates = {0, 1, 2, 3};
  const std::vector<std::uint64_t> pending(4, 0);
  EXPECT_EQ(policy->PickVictim(MakeContext(candidates, frames, pending, 10)),
            1u);
  // Scoped candidates: the global minimum is out of reach.
  const std::vector<std::uint32_t> scoped = {0, 2};
  EXPECT_EQ(policy->PickVictim(MakeContext(scoped, frames, pending, 10)), 0u);
}

TEST(EvictionPolicies, LfuPicksLeastFrequentThenOldest) {
  const auto policy = CreateEviction("cache-lfu", 0);
  ASSERT_NE(policy, nullptr);
  const std::vector<std::uint32_t> candidates = {0, 1, 2, 3};
  const std::vector<std::uint64_t> pending(4, 0);
  {
    const auto frames = OccupiedFrames({7, 3, 9, 5}, {4, 2, 9, 2});
    // uses tie between frames 1 and 3 -> older last_use (frame 1) loses.
    EXPECT_EQ(
        policy->PickVictim(MakeContext(candidates, frames, pending, 10)), 1u);
  }
}

TEST(EvictionPolicies, SampledLruDegeneratesToLruOnSmallSets) {
  const auto policy = CreateEviction("cache-sample", 42);
  ASSERT_NE(policy, nullptr);
  // <= sample size: the policy must scan everything, no randomness.
  const auto frames = OccupiedFrames({7, 3, 9, 5}, {1, 1, 1, 1});
  const std::vector<std::uint32_t> candidates = {0, 1, 2, 3};
  const std::vector<std::uint64_t> pending(4, 0);
  EXPECT_EQ(policy->PickVictim(MakeContext(candidates, frames, pending, 10)),
            1u);
}

TEST(EvictionPolicies, ShiftAwarePrefersVictimsWithoutPendingUses) {
  const auto policy = CreateEviction("cache-shift-aware", 0);
  ASSERT_NE(policy, nullptr);
  const auto frames = OccupiedFrames({3, 4, 5, 6}, {1, 1, 1, 1});
  const std::vector<std::uint32_t> candidates = {0, 1, 2, 3};
  // The LRU victim (frame 0) still has window uses pending; frame 2 is
  // done for the window and should be preferred despite being younger.
  const std::vector<std::uint64_t> pending = {5, 2, 0, 1};
  EXPECT_EQ(policy->PickVictim(MakeContext(candidates, frames, pending, 10)),
            2u);
}

TEST(CacheValidation, RejectsBadConfigurations) {
  const rtm::RtmConfig device = rtm::RtmConfig::Paper(4);

  cache::CacheConfig unresolved;  // capacity_slots == 0
  EXPECT_THROW(cache::CacheEngine(unresolved, device), std::invalid_argument);

  cache::CacheConfig unknown;
  unknown.capacity_slots = 4;
  unknown.eviction = "no-such-policy";
  EXPECT_THROW(cache::CacheEngine(unknown, device), std::invalid_argument);

  cache::CacheConfig bad_ratio;
  bad_ratio.capacity_ratio = 0.0;
  EXPECT_THROW((void)cache::ResolveCapacity(bad_ratio, 16),
               std::invalid_argument);
  // A ratio above 1 would size the cache past the working set.
  cache::CacheConfig over_provisioned;
  over_provisioned.capacity_ratio = 1.5;
  EXPECT_THROW((void)cache::ResolveCapacity(over_provisioned, 16),
               std::invalid_argument);
  cache::CacheConfig whole;
  whole.capacity_ratio = 1.0;
  EXPECT_EQ(cache::ResolveCapacity(whole, 16), 16u);
  cache::CacheConfig explicit_slots;
  explicit_slots.capacity_slots = 7;
  EXPECT_EQ(cache::ResolveCapacity(explicit_slots, 16), 7u);
  cache::CacheConfig half;
  half.capacity_ratio = 0.5;
  EXPECT_EQ(cache::ResolveCapacity(half, 16), 8u);

  cache::CacheConfig ok;
  ok.capacity_slots = 2;
  cache::CacheEngine engine(ok, device);
  EXPECT_THROW(engine.Feed(99, trace::AccessType::kRead), std::out_of_range);
  (void)engine.RegisterVariable("a");
  // An offset id that wraps past 2^32 must not alias variable 0.
  const std::vector<trace::Access> wraps = {
      {0xFFFFFFFFu, trace::AccessType::kRead}};
  EXPECT_THROW(engine.Feed(wraps, /*id_offset=*/1), std::out_of_range);
  engine.Feed(0, trace::AccessType::kRead);
  EXPECT_EQ(engine.Finish().cache.accesses, 1u);
  EXPECT_THROW((void)engine.Finish(), std::logic_error);

  const auto benchmark = workloads::ResolveWorkload("kv-churn")->Generate({});
  EXPECT_THROW((void)sim::RunCell(benchmark, 4, "cache-no-such", {}),
               std::invalid_argument);
}

void ExpectBackingRejected(const cache::BackingStoreConfig& backing) {
  cache::CacheConfig config;
  config.capacity_slots = 4;
  config.backing = backing;
  EXPECT_THROW(cache::CacheEngine(config, rtm::RtmConfig::Paper(4)),
               std::invalid_argument);
}

// Every backing-store charge must be a finite, non-negative number: a
// negative fill latency would silently shorten the cache cell's runtime.
TEST(CacheValidation, RejectsNegativeOrNonFiniteBackingCharges) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {-5.0, -1e-9, inf, -inf, nan}) {
    SCOPED_TRACE(bad);
    ExpectBackingRejected({.fill_ns = bad});
    ExpectBackingRejected({.writeback_ns = bad});
    ExpectBackingRejected({.fill_pj = bad});
    ExpectBackingRejected({.writeback_pj = bad});
  }
  cache::CacheConfig free_backing;  // zero charges are a valid model
  free_backing.capacity_slots = 4;
  free_backing.backing = {0.0, 0.0, 0.0, 0.0};
  EXPECT_NO_THROW(cache::CacheEngine(free_backing, rtm::RtmConfig::Paper(4)));
}

// Event recording classifies every access; the first `capacity` ids are
// admitted for free, so a small trace over them never misses.
TEST(CacheEvents, ClassifyHitsAndMisses) {
  const rtm::RtmConfig device = rtm::RtmConfig::Paper(2);
  cache::CacheConfig config;
  config.capacity_slots = 2;
  config.eviction = "cache-lru";
  config.record_events = true;
  config.engine.reseed_strategy = "dma-sr";
  config.engine.window_accesses = online::kWholeTraceWindow;
  config.engine.detector.kind = online::DetectorKind::kNone;

  cache::CacheEngine engine(config, device);
  ASSERT_EQ(engine.RegisterVariable("a"), 0u);
  ASSERT_EQ(engine.RegisterVariable("b"), 1u);
  ASSERT_EQ(engine.RegisterVariable("c"), 2u);  // not admitted: over capacity
  EXPECT_EQ(engine.resident(), 2u);

  engine.Feed(0u, trace::AccessType::kRead);   // hit
  engine.Feed(1u, trace::AccessType::kWrite);  // hit, dirties b's frame
  engine.Feed(2u, trace::AccessType::kRead);   // miss, evicts a (LRU)
  engine.Feed(0u, trace::AccessType::kRead);   // miss, evicts b (dirty)
  const cache::CacheResult result = engine.Finish();

  EXPECT_EQ(result.cache.accesses, 4u);
  EXPECT_EQ(result.cache.hits, 2u);
  EXPECT_EQ(result.cache.misses, 2u);
  EXPECT_EQ(result.cache.fills, 2u);
  EXPECT_EQ(result.cache.writebacks, 1u);

  ASSERT_EQ(result.events.size(), 4u);
  EXPECT_EQ(result.events[0].kind, cache::CacheEvent::Kind::kHit);
  EXPECT_EQ(result.events[1].kind, cache::CacheEvent::Kind::kHit);
  EXPECT_EQ(result.events[2].kind, cache::CacheEvent::Kind::kMiss);
  EXPECT_EQ(result.events[2].evicted, 0u);  // a was least recently used
  EXPECT_FALSE(result.events[2].wrote_back);
  EXPECT_EQ(result.events[3].kind, cache::CacheEvent::Kind::kMiss);
  EXPECT_EQ(result.events[3].evicted, 1u);  // b, dirty from the write
  EXPECT_TRUE(result.events[3].wrote_back);
}

// Quota scoping: a tenant at its resident quota evicts among its OWN
// frames only, leaving other owners' residents untouched.
TEST(CacheEvents, OwnerQuotaScopesEvictionToTheOwnersFrames) {
  const rtm::RtmConfig device = rtm::RtmConfig::Paper(4);
  cache::CacheConfig config;
  config.capacity_slots = 4;
  config.eviction = "cache-lru";
  config.record_events = true;
  config.engine.reseed_strategy = "dma-sr";
  config.engine.window_accesses = online::kWholeTraceWindow;
  config.engine.detector.kind = online::DetectorKind::kNone;

  const auto run = [&](std::size_t quota) -> std::uint32_t {
    cache::CacheEngine engine(config, device);
    EXPECT_EQ(engine.RegisterVariable("a0", /*owner=*/0), 0u);
    EXPECT_EQ(engine.RegisterVariable("a1", /*owner=*/0), 1u);
    EXPECT_EQ(engine.RegisterVariable("b0", /*owner=*/1), 2u);
    EXPECT_EQ(engine.RegisterVariable("b1", /*owner=*/1), 3u);
    EXPECT_EQ(engine.RegisterVariable("a2", /*owner=*/0), 4u);  // over capacity
    if (quota != 0) {
      engine.SetOwnerQuota(0, quota);
      engine.SetOwnerQuota(1, quota);
    }
    // Touch owner 0's residents so they are the most recently used...
    engine.Feed(0u, trace::AccessType::kRead);
    engine.Feed(1u, trace::AccessType::kRead);
    // ...then miss on a2: unscoped LRU would pick owner 1's untouched
    // b0 (frame 2); at quota, owner 0 must cannibalize its own a0.
    engine.Feed(4u, trace::AccessType::kRead);
    const cache::CacheResult result = engine.Finish();
    EXPECT_EQ(result.cache.misses, 1u);
    if (result.events.size() != 3) {
      ADD_FAILURE() << "expected 3 events, got " << result.events.size();
      return cache::kNoFrame;
    }
    EXPECT_EQ(result.events[2].kind, cache::CacheEvent::Kind::kMiss);
    return result.events[2].evicted;
  };

  EXPECT_EQ(run(/*quota=*/0), 2u);  // unscoped: b0, the true LRU victim
  EXPECT_EQ(run(/*quota=*/2), 0u);  // scoped: a0, owner 0's own LRU
}

// The registry exposes the built-ins and arbitration catches collisions.
TEST(CacheRegistries, BuiltinsRegisteredAndValidated) {
  auto& evictions = cache::EvictionPolicyRegistry::Global();
  for (const std::string& name : EvictionPolicies()) {
    EXPECT_TRUE(evictions.Contains(name)) << name;
    EXPECT_TRUE(evictions.Describe(name).has_value()) << name;
  }
  EXPECT_EQ(evictions.Find("no-such"), nullptr);

  auto& policies = cache::CachePolicyRegistry::Global();
  for (const std::string& eviction : EvictionPolicies()) {
    for (const char* suffix : {"-c25", "-c50", "-c100"}) {
      const std::string name = eviction + suffix;
      ASSERT_TRUE(policies.Contains(name)) << name;
      const auto info = policies.Describe(name);
      ASSERT_TRUE(info.has_value()) << name;
      EXPECT_EQ(policies.Find(name)->MakeConfig().eviction, eviction)
          << name;
    }
  }
  EXPECT_EQ(policies.Find("no-such"), nullptr);

  cache::CachePolicyRegistry fresh;
  cache::RegisterBuiltinCachePolicies(fresh);
  EXPECT_EQ(fresh.size(), 12u);
  EXPECT_THROW(fresh.Register("Bad Name!", nullptr), std::invalid_argument);
}

}  // namespace
