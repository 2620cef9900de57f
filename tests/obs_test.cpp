// Observability layer: histogram bucket layout and quantiles against a
// sorted-vector oracle, Merge algebra, metrics-registry snapshots, the
// trace recorder's arena/drop behavior, Chrome trace-format pinning via
// util::JsonValue::Parse, the determinism contract — bucket-exact
// registry and trace equality across reruns and worker-thread counts,
// pinned to tests/data/obs_matrix_{metrics,trace}.json — and
// conservation: each published counter equals the result field it is
// derived from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_recorder.h"
#include "offsetstone/suite.h"
#include "online/engine.h"
#include "online/policy.h"
#include "serve/serve_cell.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

// ---- histogram: bucket layout ----------------------------------------------

TEST(ObsHistogram, BucketLayoutIsLogTwoExact) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf(std::numeric_limits<std::uint64_t>::max()),
            obs::Histogram::kNumBuckets - 1);
  // Every bucket covers [BucketLow, BucketHigh] and the bounds map back
  // to their own bucket — no value can straddle two buckets.
  for (std::size_t b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketLow(b)), b);
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketHigh(b)), b);
  }
}

TEST(ObsHistogram, RecordCountsIntoTheRightBucket) {
  obs::Histogram hist;
  hist.Record(0);
  hist.Record(1);
  hist.Record(1000);  // 2^9 <= 1000 < 2^10 -> bucket 10
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(10), 1u);
}

// ---- histogram: quantiles vs a sorted-vector oracle ------------------------

TEST(ObsHistogram, QuantilesMatchSortedVectorOracle) {
  util::Rng rng(0x0B5C0DE);
  std::vector<std::uint64_t> values;
  obs::Histogram hist;
  for (int i = 0; i < 5000; ++i) {
    // Spread over many orders of magnitude so every quantile exercises
    // a different bucket.
    const std::uint64_t magnitude = rng.NextBelow(40);
    const std::uint64_t value = rng.NextBelow(
        (std::uint64_t{1} << magnitude) + 1);
    values.push_back(value);
    hist.Record(value);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // The oracle's rank-th value (matching the histogram's rank rule).
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    const std::uint64_t exact = values[rank - 1];
    // A log2 histogram cannot beat bucket resolution: the reported
    // quantile must be the upper bound of the exact value's bucket.
    EXPECT_EQ(hist.Quantile(q),
              obs::Histogram::BucketHigh(obs::Histogram::BucketOf(exact)))
        << "q=" << q;
  }
  EXPECT_EQ(obs::Histogram{}.Quantile(0.5), 0u);  // empty -> 0
}

// ---- histogram: merge algebra ----------------------------------------------

obs::Histogram RandomHistogram(std::uint64_t seed) {
  util::Rng rng(seed);
  obs::Histogram hist;
  const std::size_t n = 1 + rng.NextBelow(200);
  for (std::size_t i = 0; i < n; ++i) {
    hist.Record(rng.NextBelow(std::uint64_t{1} << rng.NextBelow(50)) + 1);
  }
  return hist;
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const obs::Histogram a = RandomHistogram(seed * 3);
    const obs::Histogram b = RandomHistogram(seed * 3 + 1);
    const obs::Histogram c = RandomHistogram(seed * 3 + 2);

    obs::Histogram ab = a;
    ab.Merge(b);
    obs::Histogram ba = b;
    ba.Merge(a);
    EXPECT_TRUE(ab == ba) << "commutativity, seed " << seed;

    obs::Histogram ab_c = ab;
    ab_c.Merge(c);
    obs::Histogram bc = b;
    bc.Merge(c);
    obs::Histogram a_bc = a;
    a_bc.Merge(bc);
    EXPECT_TRUE(ab_c == a_bc) << "associativity, seed " << seed;
    EXPECT_EQ(ab_c.total(), a.total() + b.total() + c.total());
  }
}

// ---- metrics registry ------------------------------------------------------

TEST(ObsMetricsRegistry, ReferencesAreStableAndMergeAdds) {
  obs::MetricsRegistry registry;
  std::uint64_t& counter = registry.Counter("online/windows");
  counter += 3;
  // Unrelated insertions must not invalidate the resolved reference
  // (engines cache these at construction).
  for (int i = 0; i < 100; ++i) {
    registry.Counter("filler/" + std::to_string(i)) = 1;
  }
  counter += 2;
  EXPECT_EQ(registry.Counter("online/windows"), 5u);

  obs::MetricsRegistry other;
  other.Counter("online/windows") = 10;
  other.Gauge("serve/fairness") = 0.5;
  other.Hist("online/window_latency_ns").Record(1234);
  registry.Merge(other);
  EXPECT_EQ(registry.Counter("online/windows"), 15u);
  EXPECT_DOUBLE_EQ(registry.Gauge("serve/fairness"), 0.5);
  EXPECT_EQ(registry.Hist("online/window_latency_ns").total(), 1u);
}

TEST(ObsMetricsRegistry, SnapshotParsesAndCarriesQuantiles) {
  obs::MetricsRegistry registry;
  registry.Counter("cache/misses") = 7;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    registry.Hist("serve/latency_ns").Record(v);
  }
  const util::JsonValue snapshot = util::JsonValue::Parse(registry.ToJson());
  EXPECT_EQ(snapshot.At("counters").At("cache/misses").AsUInt(), 7u);
  const util::JsonValue& hist =
      snapshot.At("histograms").At("serve/latency_ns");
  EXPECT_EQ(hist.At("count").AsUInt(), 100u);
  // p50 of 1..100 is 50, in bucket [32, 63].
  EXPECT_EQ(hist.At("p50").AsUInt(), 63u);
  EXPECT_EQ(hist.At("p99").AsUInt(), 127u);
}

// ---- trace recorder: arena + drop behavior ---------------------------------

TEST(ObsTraceRecorder, DropsBeyondCapacityAndReportsIt) {
  obs::TraceRecorder trace(/*capacity=*/2);
  trace.Complete("span", 0, 0, 0.0, 10.0, {});
  trace.Instant("span", 0, 0, 5.0, {});
  trace.Complete("span", 0, 0, 20.0, 10.0, {});  // arena full -> dropped
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 1u);
  const util::JsonValue json = util::JsonValue::Parse(trace.ToJson());
  EXPECT_EQ(json.At("droppedEvents").AsUInt(), 1u);
  EXPECT_EQ(json.At("traceEvents").Items().size(), 2u);
}

TEST(ObsTraceRecorder, MergeRemapsInternedStringValues) {
  obs::TraceRecorder a;
  obs::TraceRecorder b;
  // Interning in a different order forces a nontrivial remap of the
  // string arg values; names and keys are literals and copy as they are.
  const std::uint32_t a_value = a.Intern("t1");
  const std::uint32_t b_value = b.Intern("t0");
  EXPECT_EQ(a_value, b_value);
  const obs::TraceRecorder::Arg a_args[] = {{"tenant", true, a_value}};
  a.Complete("span", 0, 0, 0.0, 1.0, a_args);
  const obs::TraceRecorder::Arg b_args[] = {
      {"tenant", true, b_value},
      {"shifts", false, 7},
  };
  b.Instant("span", 1, 2, 3.0, b_args);
  a.Merge(b);
  const util::JsonValue json = util::JsonValue::Parse(a.ToJson());
  const auto& events = json.At("traceEvents").Items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].At("args").At("tenant").AsString(), "t1");
  EXPECT_EQ(events[1].At("name").AsString(), "span");
  EXPECT_EQ(events[1].At("args").At("tenant").AsString(), "t0");
  EXPECT_EQ(events[1].At("args").At("shifts").AsUInt(), 7u);
}

// ---- serve: per-tenant latency histograms ----------------------------------

trace::AccessSequence WorkloadSequence(const std::string& name,
                                       std::size_t index = 0) {
  const auto workload = workloads::ResolveWorkload(name);
  EXPECT_NE(workload, nullptr) << name;
  auto benchmark = workload->Generate({});
  EXPECT_GT(benchmark.sequences.size(), index);
  return std::move(benchmark.sequences[index]);
}

TEST(ObsServe, TenantHistogramsMergeExactlyToTheDeviceHistogram) {
  const trace::AccessSequence seq0 = WorkloadSequence("gemm-tiled");
  const trace::AccessSequence seq1 = WorkloadSequence("kv-churn");
  const rtm::RtmConfig config =
      sim::CellConfig(4, seq0.num_variables() + seq1.num_variables());
  serve::ServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.engine.reseed_strategy = "dma-sr";
  serve_config.engine.window_accesses = 128;
  serve_config.engine.strategy_options.cost.initial_alignment =
      config.initial_alignment;
  serve::PlacementService service(serve_config, config);
  (void)service.OpenSession("t0", seq0);
  (void)service.OpenSession("t1", seq1);
  const serve::ServeResult result = service.Run();

  ASSERT_EQ(result.tenants.size(), 2u);
  obs::Histogram merged;
  std::uint64_t turns = 0;
  for (const serve::TenantStats& tenant : result.tenants) {
    EXPECT_GT(tenant.latency_hist.total(), 0u) << tenant.name;
    merged.Merge(tenant.latency_hist);
    turns += tenant.windows;
  }
  // Each turn's exposed latency lands once in its tenant's histogram
  // and once in the device's: the merge must be bucket-exact, not
  // approximately equal.
  EXPECT_TRUE(merged == result.latency_hist);
  EXPECT_EQ(result.latency_hist.total(), turns);
  EXPECT_GE(result.latency_hist.Quantile(0.99),
            result.latency_hist.Quantile(0.5));
}

// ---- matrix: four-layer tracing + format pinning ---------------------------

offsetstone::Benchmark TinyBenchmark(const char* name, const char* text) {
  offsetstone::Benchmark b;
  b.name = name;
  b.sequences.push_back(trace::AccessSequence::FromCompactString(text));
  return b;
}

/// 288 accesses in twelve 24-access phases, each drawing from one of four
/// overlapping 8-variable sets: enough drift for the busy serve cell below.
offsetstone::Benchmark PhasedBenchmark() {
  const char* const sets[] = {"abcdefgh", "ijklmnop", "abcdijkl",
                              "qrstuvwx"};
  std::string text;
  util::Rng rng(5);
  for (int round = 0; round < 3; ++round) {
    for (const char* set : sets) {
      for (int i = 0; i < 24; ++i) text += set[rng.NextBelow(8)];
    }
  }
  return TinyBenchmark("phased", text.c_str());
}

/// One shard of online-ewma-dma-sr on 32-access windows under a budget of
/// one migration shift per window, with a cache tier at ratio 0.5: on
/// PhasedBenchmark it detects phase changes, migrates, is denied
/// re-placements and pays fill shifts, so the pinned snapshot covers the
/// migration, phase-change and budget-denied events and their counters.
const serve::ServePolicyRegistrar kBusyServe{"obs-busy-serve", [] {
  serve::ServeConfig config;
  config.engine = online::OnlinePolicyRegistry::Global()
                      .Find("online-ewma-dma-sr")
                      ->MakeConfig();
  config.engine.window_accesses = 32;
  config.budget.shifts_per_window = 1;
  config.cache.enabled = true;
  config.cache.capacity_ratio = 0.5;
  return std::make_shared<const serve::ServePolicy>(
      util::RecipeInfo{"obs-busy-serve",
                       "test: busy serve cell with a cache tier"},
      config);
}};

sim::ExperimentOptions ObsMatrixOptions() {
  sim::ExperimentOptions options;
  options.dbc_counts = {4};
  options.strategies.clear();
  options.extra_strategies = {"dma-sr", "online-ewma-dma-sr",
                              "serve-1s-ewma-dma-sr", "cache-lru-c50",
                              "obs-busy-serve"};
  options.search_effort = 0.01;
  return options;
}

TEST(ObsMatrix, TraceIsValidChromeFormatWithSpansFromAllLayers) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("mix", "ababcdcdefefabab")};
  sim::ExperimentOptions options = ObsMatrixOptions();
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  options.obs.trace = &trace;
  options.obs.metrics = &metrics;
  const auto results = sim::RunMatrix(suite, options);
  ASSERT_EQ(results.size(), 5u);

  const util::JsonValue json = util::JsonValue::Parse(trace.ToJson());
  const auto& events = json.At("traceEvents").Items();
  ASSERT_GT(events.size(), 0u);
  std::set<std::string> names;
  for (const util::JsonValue& event : events) {
    const std::string ph = event.At("ph").AsString();
    // Chrome trace-event format: only phases we emit, complete events
    // carry a duration, instants their scope.
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    if (ph == "X") {
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
    }
    if (ph == "i") {
      EXPECT_EQ(event.At("s").AsString(), "t");
    }
    names.insert(event.At("name").AsString());
  }
  // Spans from all four instrumented layers: the matrix ("cell"), the
  // serve arbiter ("turn"), the online engine ("window" — also inside
  // serve shards and the cache's wrapped engine), and the cache tier.
  EXPECT_TRUE(names.count("cell")) << "sim layer missing";
  EXPECT_TRUE(names.count("turn")) << "serve layer missing";
  EXPECT_TRUE(names.count("window")) << "online layer missing";
  EXPECT_TRUE(names.count("cache-miss") || names.count("fill-sweep"))
      << "cache layer missing";

  EXPECT_EQ(metrics.Counter("sim/cells"), 5u);
  EXPECT_GT(metrics.Counter("online/windows"), 0u);
  EXPECT_GT(metrics.Counter("serve/turns"), 0u);
  EXPECT_GT(metrics.Hist("online/window_latency_ns").total(), 0u);
}

// ---- determinism: rerun and thread-count invariance -------------------------

struct ObsSnapshot {
  std::string metrics;
  std::string trace;
};

std::string ReadDataFile(const std::string& name) {
  std::ifstream in(std::string(RTMPLACE_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

ObsSnapshot RunObsMatrix(unsigned num_threads) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "ababcdcdefefabab"),
      TinyBenchmark("two", "aabbccddaabbccdd"), PhasedBenchmark()};
  sim::ExperimentOptions options = ObsMatrixOptions();
  options.num_threads = num_threads;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  options.obs.trace = &trace;
  options.obs.metrics = &metrics;
  (void)sim::RunMatrix(suite, options);
  return {metrics.ToJson(), trace.ToJson()};
}

TEST(ObsDeterminism, SnapshotsAreByteIdenticalAcrossRerunsAndThreads) {
  const ObsSnapshot serial = RunObsMatrix(1);
  const ObsSnapshot serial_again = RunObsMatrix(1);
  const ObsSnapshot parallel = RunObsMatrix(4);
  // Bucket-exact and byte-exact: per-cell sinks merge in grid order, so
  // neither rerun nor RTMPLACE_THREADS may move a single count or event.
  EXPECT_EQ(serial.metrics, serial_again.metrics);
  EXPECT_EQ(serial.trace, serial_again.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
  // Pinned bytes: how the engines publish counters and name events is
  // free to change, the snapshot and trace text are not.
  EXPECT_EQ(serial.metrics + "\n", ReadDataFile("obs_matrix_metrics.json"));
  EXPECT_EQ(serial.trace + "\n", ReadDataFile("obs_matrix_trace.json"));
  // The pin covers every event kind and every online/cache counter.
  const util::JsonValue counters =
      util::JsonValue::Parse(serial.metrics).At("counters");
  for (const char* name :
       {"online/migrations", "online/phase_changes", "online/budget_denials",
        "cache/fill_shifts"}) {
    EXPECT_GT(counters.At(name).AsUInt(), 0u) << name;
  }
  for (const char* name : {"\"migration\"", "\"phase-change\"",
                           "\"budget-denied\""}) {
    EXPECT_NE(serial.trace.find(name), std::string::npos) << name;
  }
}

// ---- conservation: published counters are the result fields ----------------

std::uint64_t PublishedCounter(const obs::MetricsRegistry& metrics,
                               const char* name) {
  // Through the snapshot, so a counter that was never published fails
  // instead of reading as a fresh zero.
  return util::JsonValue::Parse(metrics.ToJson())
      .At("counters")
      .At(name)
      .AsUInt();
}

/// Expects the online/* counters and histogram that `metrics` holds for
/// exactly the runs in `results`.
void ExpectOnlineCountersMatch(
    const obs::MetricsRegistry& metrics,
    const std::vector<online::OnlineResult>& results) {
  std::uint64_t windows = 0, phase_changes = 0, migrations = 0;
  std::uint64_t denials = 0, service = 0, migration = 0;
  obs::Histogram latency;
  for (const online::OnlineResult& result : results) {
    windows += result.windows.size();
    for (const online::WindowRecord& record : result.windows) {
      if (record.phase_change) ++phase_changes;
      latency.Record(
          static_cast<std::uint64_t>(std::llround(record.latency_ns)));
    }
    migrations += result.migrations;
    denials += result.budget_denials;
    service += result.service_shifts;
    migration += result.migration_shifts;
  }
  EXPECT_EQ(PublishedCounter(metrics, "online/windows"), windows);
  EXPECT_EQ(PublishedCounter(metrics, "online/phase_changes"), phase_changes);
  EXPECT_EQ(PublishedCounter(metrics, "online/migrations"), migrations);
  EXPECT_EQ(PublishedCounter(metrics, "online/budget_denials"), denials);
  EXPECT_EQ(PublishedCounter(metrics, "online/service_shifts"), service);
  EXPECT_EQ(PublishedCounter(metrics, "online/migration_shifts"), migration);
  obs::MetricsRegistry copy;
  copy.Merge(metrics);
  EXPECT_TRUE(copy.Hist("online/window_latency_ns") == latency);
}

TEST(ObsConservation, PublishedCountersEqualTheResultFields) {
  {
    const trace::AccessSequence seq =
        WorkloadSequence("phased(gemm-tiled,stream-scan)");
    const rtm::RtmConfig device = sim::CellConfig(4, seq.num_variables());
    online::OnlineConfig config =
        online::OnlinePolicyRegistry::Global()
            .Find("online-ewma-dma-sr")
            ->MakeConfig();
    obs::MetricsRegistry metrics;
    config.obs.metrics = &metrics;
    const online::OnlineResult result =
        online::RunOnline(seq, config, device);
    EXPECT_GT(result.migrations, 0u);
    ExpectOnlineCountersMatch(metrics, {result});
  }
  {
    const trace::AccessSequence seq = WorkloadSequence("kv-churn");
    const rtm::RtmConfig device = sim::CellConfig(4, seq.num_variables());
    cache::CacheConfig config = cache::CachePolicyRegistry::Global()
                                    .Find("cache-shift-aware-c50")
                                    ->MakeConfig();
    obs::MetricsRegistry metrics;
    config.engine.obs.metrics = &metrics;
    const cache::CacheResult result = cache::RunCache(seq, config, device);
    EXPECT_GT(result.cache.misses, 0u);
    EXPECT_EQ(PublishedCounter(metrics, "cache/hits"), result.cache.hits);
    EXPECT_EQ(PublishedCounter(metrics, "cache/misses"), result.cache.misses);
    EXPECT_EQ(PublishedCounter(metrics, "cache/fills"), result.cache.fills);
    EXPECT_EQ(PublishedCounter(metrics, "cache/writebacks"),
              result.cache.writebacks);
    EXPECT_EQ(PublishedCounter(metrics, "cache/fill_shifts"),
              result.cache.fill_shifts);
    ExpectOnlineCountersMatch(metrics, {result.online});
  }
  {
    // One tenant per gemm-tiled sequence on 2 shards; the tight budget
    // denies at least one re-placement.
    const auto workload = workloads::ResolveWorkload("gemm-tiled");
    ASSERT_NE(workload, nullptr);
    const offsetstone::Benchmark benchmark = workload->Generate({});
    const auto policy = serve::ServePolicyRegistry::Global().Find(
        "serve-2s-tight-ewma-dma-sr");
    ASSERT_NE(policy, nullptr);
    ASSERT_EQ(policy->MakeConfig().num_shards, 2u);
    obs::MetricsRegistry metrics;
    sim::ExperimentOptions options;
    options.obs.metrics = &metrics;
    const serve::ServeResult result =
        serve::RunServeBenchmark(benchmark, 8, *policy, options).result;
    EXPECT_GT(result.budget_denials, 0u);
    std::uint64_t turns = 0;
    std::uint64_t denials = 0;
    for (const serve::TenantStats& tenant : result.tenants) {
      turns += tenant.windows;
      denials += tenant.budget_denials;
    }
    EXPECT_EQ(denials, result.budget_denials);
    EXPECT_EQ(PublishedCounter(metrics, "serve/turns"), turns);
    EXPECT_EQ(PublishedCounter(metrics, "serve/budget_denials"), denials);
    std::vector<online::OnlineResult> shards;
    for (const serve::ShardStats& shard : result.shards) {
      shards.push_back(shard.result);
    }
    ExpectOnlineCountersMatch(metrics, shards);
  }
}

}  // namespace
