#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_policy.h"
#include "core/cost_model.h"
#include "core/strategy_registry.h"
#include "online/policy.h"
#include "serve/serve_policy.h"
#include "sim/experiment.h"
#include "trace/trace_io.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rtmp::sim {
namespace {

offsetstone::Benchmark TinyBenchmark(const char* name, const char* text) {
  offsetstone::Benchmark b;
  b.name = name;
  b.sequences.push_back(trace::AccessSequence::FromCompactString(text));
  return b;
}

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.dbc_counts = {2, 4};
  options.strategies = {
      {core::InterPolicy::kAfd, core::IntraHeuristic::kOfu},
      {core::InterPolicy::kDma, core::IntraHeuristic::kOfu},
  };
  options.search_effort = 0.01;
  return options;
}

TEST(Experiment, RunCellAccumulatesAllSequences) {
  offsetstone::Benchmark b = TinyBenchmark("two-seqs", "ababab");
  b.sequences.push_back(trace::AccessSequence::FromCompactString("cdcd"));
  const RunResult result = RunCell(b, 2, "afd-ofu", FastOptions());
  EXPECT_EQ(result.metrics.accesses, 6u + 4u);
  EXPECT_GT(result.metrics.runtime_ns, 0.0);
  EXPECT_GT(result.metrics.total_energy_pj(), 0.0);
}

TEST(Experiment, RunMatrixCoversTheWholeGrid) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc"), TinyBenchmark("two", "aabbcc")};
  const auto options = FastOptions();
  const auto results = RunMatrix(suite, options);
  EXPECT_EQ(results.size(), suite.size() * options.dbc_counts.size() *
                                options.strategies.size());
}

TEST(Experiment, ResultTableLooksUpCells) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc")};
  const auto options = FastOptions();
  const ResultTable table(RunMatrix(suite, options));
  const auto& metrics =
      table.At("one", 2, {core::InterPolicy::kAfd, core::IntraHeuristic::kOfu});
  EXPECT_EQ(metrics.accesses, 6u);
  EXPECT_THROW((void)table.At("missing", 2, options.strategies[0]),
               std::out_of_range);
}

TEST(Experiment, NormalizedShiftsHandleZeroBaselines) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("trivial", "aaaa")};  // zero shifts for everyone
  const auto options = FastOptions();
  const ResultTable table(RunMatrix(suite, options));
  const auto normalized = table.NormalizedShifts(
      {"trivial"}, 2, options.strategies[0], options.strategies[1]);
  ASSERT_EQ(normalized.size(), 1u);
  EXPECT_DOUBLE_EQ(normalized[0], 1.0);
}

TEST(Experiment, DmaNeverLosesToAfdOnPhasedWorkload) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("phased", "g" "ababab" "g" "cdcdcd" "g" "efefef" "g")};
  const auto options = FastOptions();
  const ResultTable table(RunMatrix(suite, options));
  for (const unsigned dbcs : options.dbc_counts) {
    const auto afd =
        table.At("phased", dbcs, options.strategies[0]).shifts;
    const auto dma =
        table.At("phased", dbcs, options.strategies[1]).shifts;
    EXPECT_LE(dma, afd) << dbcs;
  }
}

TEST(Experiment, OversizedSequenceWidensTheDevice) {
  // 1100 variables exceed the 1024-word 4 KiB device: the harness must
  // widen DBC depth instead of throwing (ConfigFor in sim/experiment.cpp).
  offsetstone::Benchmark big;
  big.name = "big";
  trace::AccessSequence seq;
  for (int i = 0; i < 1100; ++i) {
    seq.AddVariable(util::Concat({"v", std::to_string(i)}));
  }
  for (int i = 0; i < 1100; ++i) {
    seq.Append(static_cast<trace::VariableId>(i));
  }
  big.sequences.push_back(std::move(seq));
  ExperimentOptions options = FastOptions();
  options.dbc_counts = {2};
  options.strategies = {{core::InterPolicy::kAfd, core::IntraHeuristic::kOfu}};
  const auto results = RunMatrix({big}, options);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].metrics.accesses, 1100u);
}

TEST(Experiment, SearchEffortFromEnvParsesAndFallsBack) {
  ::unsetenv("RTMPLACE_EFFORT");
  EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.25);
  ::setenv("RTMPLACE_EFFORT", "0.5", 1);
  EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.5);
  ::setenv("RTMPLACE_EFFORT", "garbage", 1);
  EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.25);
  ::setenv("RTMPLACE_EFFORT", "-1", 1);
  EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.25);
  // Non-finite and absurd values would overflow the effort scaling.
  for (const char* hostile : {"nan", "inf", "1e300"}) {
    ::setenv("RTMPLACE_EFFORT", hostile, 1);
    EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.25) << hostile;
  }
  // A number followed by anything else is invalid as a whole.
  for (const char* trailing : {"0.5x", "1 "}) {
    ::setenv("RTMPLACE_EFFORT", trailing, 1);
    EXPECT_DOUBLE_EQ(SearchEffortFromEnv(0.25), 0.25) << trailing;
  }
  ::unsetenv("RTMPLACE_EFFORT");
}

TEST(Experiment, ThreadCountFromEnvParsesAndFallsBack) {
  ::unsetenv("RTMPLACE_THREADS");
  EXPECT_EQ(ThreadCountFromEnv(3u), 3u);
  ::setenv("RTMPLACE_THREADS", "8", 1);
  EXPECT_EQ(ThreadCountFromEnv(3u), 8u);
  ::setenv("RTMPLACE_THREADS", "garbage", 1);
  EXPECT_EQ(ThreadCountFromEnv(3u), 3u);
  ::setenv("RTMPLACE_THREADS", "0", 1);
  EXPECT_EQ(ThreadCountFromEnv(3u), 3u);
  ::setenv("RTMPLACE_THREADS", "-2", 1);
  EXPECT_EQ(ThreadCountFromEnv(3u), 3u);
  // Out-of-range values must fall back, not wrap in the unsigned cast.
  ::setenv("RTMPLACE_THREADS", "4294967298", 1);
  EXPECT_EQ(ThreadCountFromEnv(3u), 3u);
  // A number followed by anything else is invalid as a whole.
  for (const char* trailing : {"4x", "1 "}) {
    ::setenv("RTMPLACE_THREADS", trailing, 1);
    EXPECT_EQ(ThreadCountFromEnv(3u), 3u) << trailing;
  }
  ::unsetenv("RTMPLACE_THREADS");
}

TEST(Experiment, ParallelMatrixIsBitIdenticalToSerial) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "g" "ababab" "g" "cdcdcd" "g"),
      TinyBenchmark("two", "aabbccaabbcc"),
      TinyBenchmark("three", "abcdabcdabcd")};
  ExperimentOptions options = FastOptions();
  options.strategies = core::PaperStrategies();
  options.search_effort = 0.02;

  options.num_threads = 1;
  const auto serial = RunMatrix(suite, options);
  options.num_threads = 4;
  const auto parallel = RunMatrix(suite, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Same grid order regardless of which worker finished first...
    EXPECT_EQ(serial[i].benchmark, parallel[i].benchmark);
    EXPECT_EQ(serial[i].dbcs, parallel[i].dbcs);
    EXPECT_EQ(serial[i].strategy_name, parallel[i].strategy_name);
    // ...and bit-identical metrics: per-cell seeds do not depend on the
    // execution schedule.
    EXPECT_EQ(serial[i].metrics.shifts, parallel[i].metrics.shifts);
    EXPECT_EQ(serial[i].metrics.accesses, parallel[i].metrics.accesses);
    EXPECT_EQ(serial[i].placement_cost, parallel[i].placement_cost);
    EXPECT_EQ(serial[i].search_evaluations, parallel[i].search_evaluations);
    EXPECT_DOUBLE_EQ(serial[i].metrics.runtime_ns,
                     parallel[i].metrics.runtime_ns);
    EXPECT_DOUBLE_EQ(serial[i].metrics.total_energy_pj(),
                     parallel[i].metrics.total_energy_pj());
  }
}

TEST(Experiment, ConcurrentMatricesMatchSerial) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "g" "ababab" "g" "cdcdcd" "g"),
      TinyBenchmark("two", "aabbccaabbcc"),
      TinyBenchmark("three", "abcdabcdabcd")};
  ExperimentOptions options = FastOptions();
  options.strategies = core::PaperStrategies();
  options.search_effort = 0.02;

  options.num_threads = 1;
  const auto serial = RunMatrix(suite, options);

  // Two matrices of two workers each, started together from two host
  // threads and overlapping in time.
  options.num_threads = 2;
  std::vector<RunResult> concurrent[2];
  std::latch start(2);
  {
    std::vector<std::jthread> callers;
    for (std::vector<RunResult>& results : concurrent) {
      callers.emplace_back([&suite, &options, &start, &results] {
        start.arrive_and_wait();
        results = RunMatrix(suite, options);
      });
    }
  }

  for (const auto& results : concurrent) {
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(results[i].benchmark, serial[i].benchmark);
      EXPECT_EQ(results[i].dbcs, serial[i].dbcs);
      EXPECT_EQ(results[i].strategy_name, serial[i].strategy_name);
      EXPECT_EQ(results[i].metrics.shifts, serial[i].metrics.shifts);
      EXPECT_EQ(results[i].metrics.accesses, serial[i].metrics.accesses);
      EXPECT_EQ(results[i].placement_cost, serial[i].placement_cost);
      EXPECT_EQ(results[i].search_evaluations,
                serial[i].search_evaluations);
      // Bit for bit, not within ULPs.
      EXPECT_EQ(results[i].metrics.runtime_ns, serial[i].metrics.runtime_ns);
      EXPECT_EQ(results[i].metrics.total_energy_pj(),
                serial[i].metrics.total_energy_pj());
    }
  }
}

TEST(Experiment, ProgressCallbackSeesEveryCellExactlyOnce) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc"), TinyBenchmark("two", "aabbcc")};
  ExperimentOptions options = FastOptions();
  options.num_threads = 4;
  const std::size_t expected =
      suite.size() * options.dbc_counts.size() * options.strategies.size();

  std::vector<std::size_t> completions;
  std::size_t reported_total = 0;
  options.progress = [&](const RunResult& result, std::size_t completed,
                         std::size_t total) {
    // Serialized by the engine: no locking needed here.
    EXPECT_FALSE(result.benchmark.empty());
    completions.push_back(completed);
    reported_total = total;
  };
  const auto results = RunMatrix(suite, options);
  EXPECT_EQ(results.size(), expected);
  EXPECT_EQ(reported_total, expected);
  ASSERT_EQ(completions.size(), expected);
  // `completed` counts monotonically 1..total.
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], i + 1);
  }
}

/// Minimal external strategy: deal variables by DESCENDING id, round
/// robin. Exists only to prove non-enum strategies reach the engine.
class ReverseIdStrategy final : public core::PlacementStrategy {
 public:
  const core::StrategyInfo& Describe() const noexcept override {
    static const core::StrategyInfo info{
        "rev-id", "descending-id round-robin deal (test strategy)",
        /*search_based=*/false, /*spec=*/{}};
    return info;
  }

  core::PlacementResult Run(
      const core::PlacementRequest& request) const override {
    const auto& seq = *request.sequence;
    core::PlacementResult result;
    result.placement = core::Placement(seq.num_variables(),
                                       request.num_dbcs, request.capacity);
    for (std::size_t i = seq.num_variables(); i > 0; --i) {
      result.placement.Append(
          static_cast<std::uint32_t>((seq.num_variables() - i) %
                                     request.num_dbcs),
          static_cast<trace::VariableId>(i - 1));
    }
    result.cost = ShiftCost(seq, result.placement, request.options.cost);
    return result;
  }
};

const core::StrategyRegistrar kReverseIdRegistrar{"rev-id", [] {
  return std::make_shared<const ReverseIdStrategy>();
}};

TEST(Experiment, ExtraStrategiesReachTheMatrixByName) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc")};
  ExperimentOptions options = FastOptions();
  // Mixed case on purpose: cells must stay reachable under the requested
  // name, matching the registry's case-insensitive resolution.
  options.extra_strategies = {"rev-id", "AFD-GE"};
  const auto results = RunMatrix(suite, options);
  EXPECT_EQ(results.size(),
            options.dbc_counts.size() *
                (options.strategies.size() + options.extra_strategies.size()));

  bool saw_external = false;
  for (const RunResult& r : results) {
    if (r.strategy_name != "rev-id") continue;
    saw_external = true;
    EXPECT_EQ(r.metrics.accesses, 6u);
  }
  EXPECT_TRUE(saw_external);

  // Name-keyed table lookup covers both extras and built-ins.
  const ResultTable table(results);
  EXPECT_EQ(table.At("one", 2, std::string("rev-id")).accesses, 6u);
  EXPECT_EQ(table.At("one", 2, std::string("afd-ge")).accesses, 6u);
  EXPECT_THROW((void)table.At("one", 2, std::string("missing-name")),
               std::out_of_range);
}

TEST(Experiment, MatrixDedupesOverlappingStrategyNames) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc")};
  ExperimentOptions options = FastOptions();
  // Both already in FastOptions().strategies (afd-ofu, dma-ofu): the grid
  // must not run duplicate cells for them.
  options.extra_strategies = {"AFD-OFU", "dma-ofu", "afd-ge"};
  const auto results = RunMatrix(suite, options);
  EXPECT_EQ(results.size(),
            options.dbc_counts.size() * (options.strategies.size() + 1));
}

TEST(Experiment, ProgressCallbackExceptionsPropagateFromWorkers) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "abcabc"), TinyBenchmark("two", "aabbcc")};
  ExperimentOptions options = FastOptions();
  options.num_threads = 4;
  options.progress = [](const RunResult&, std::size_t, std::size_t) {
    throw std::runtime_error("progress failed");
  };
  // Must surface as an exception from RunMatrix, not std::terminate in a
  // worker thread.
  EXPECT_THROW((void)RunMatrix(suite, options), std::runtime_error);
}

TEST(Experiment, RunCellReportsPlacementCostAndWallTime) {
  const offsetstone::Benchmark b =
      TinyBenchmark("phased", "g" "ababab" "g" "cdcdcd" "g");
  const RunResult result = RunCell(b, 2, "dma-ofu", FastOptions());
  // The analytic cost the strategy reports equals the simulator's count.
  EXPECT_EQ(result.placement_cost, result.metrics.shifts);
  EXPECT_GE(result.placement_wall_ms, 0.0);
  EXPECT_EQ(result.search_evaluations, 1u);  // one constructive candidate
}

TEST(Experiment, RunCellRejectsUnregisteredStrategies) {
  const offsetstone::Benchmark b = TinyBenchmark("x", "abab");
  core::StrategySpec bogus;
  bogus.inter = static_cast<core::InterPolicy>(250);
  EXPECT_THROW((void)RunCell(b, 2, core::ToString(bogus), FastOptions()),
               std::invalid_argument);
}

/// A multi-sequence trace with uneven variable counts and a write mix:
/// streaming must size the device per sequence exactly as the
/// materialized loop does.
trace::TraceFile StreamPinTrace() {
  trace::TraceFile file;
  file.benchmark = "streampin";
  util::Rng rng(0xBEEF);
  const std::size_t var_counts[] = {30, 12};
  const std::size_t lengths[] = {400, 200};
  for (std::size_t s = 0; s < 2; ++s) {
    trace::AccessSequence seq;
    for (std::size_t v = 0; v < var_counts[s]; ++v) {
      (void)seq.AddVariable(util::Concat({"v", std::to_string(v)}));
    }
    for (std::size_t i = 0; i < lengths[s]; ++i) {
      seq.Append(
          static_cast<trace::VariableId>(rng.NextBelow(var_counts[s])),
          rng.NextBool(0.3) ? trace::AccessType::kWrite
                            : trace::AccessType::kRead);
    }
    file.sequence_names.push_back(util::Concat({"s", std::to_string(s)}));
    file.sequences.push_back(std::move(seq));
  }
  return file;
}

std::string WriteStreamPinTrace() {
  const std::string path =
      ::testing::TempDir() + "rtmplace_streampin.trace";
  std::ofstream out(path);
  trace::WriteTrace(out, StreamPinTrace());
  return path;
}

void ExpectCellsEqual(const RunResult& a, const RunResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.benchmark, b.benchmark) << label;
  EXPECT_EQ(a.strategy_name, b.strategy_name) << label;
  EXPECT_EQ(a.metrics.shifts, b.metrics.shifts) << label;
  EXPECT_EQ(a.metrics.accesses, b.metrics.accesses) << label;
  EXPECT_DOUBLE_EQ(a.metrics.read_write_pj, b.metrics.read_write_pj) << label;
  EXPECT_DOUBLE_EQ(a.metrics.shift_pj, b.metrics.shift_pj) << label;
  EXPECT_EQ(a.placement_cost, b.placement_cost) << label;
  EXPECT_EQ(a.search_evaluations, b.search_evaluations) << label;
  EXPECT_DOUBLE_EQ(a.metrics.runtime_ns, b.metrics.runtime_ns) << label;
  EXPECT_DOUBLE_EQ(a.metrics.total_energy_pj(), b.metrics.total_energy_pj())
      << label;
}

TEST(Experiment, StreamedTraceCellMatchesMaterialized) {
  const std::string path = WriteStreamPinTrace();
  ExperimentOptions options = FastOptions();
  const std::vector<std::string> specs = {path};
  const auto suite = LoadWorkloads(specs, options);
  ASSERT_EQ(suite.size(), 1u);
  EXPECT_EQ(suite[0].name, "streampin");

  // One strategy per dispatch family: classic placement, the online
  // engine (fixed and adaptive), the capacity-constrained cache tier, and
  // a serve cell, which materializes the file.
  for (const std::string name :
       {"dma-ofu", "online-fixed-dma-sr", "online-ewma-dma-sr",
        "cache-shift-aware-c50", "serve-2s-ewma-dma-sr"}) {
    const RunResult materialized = RunCell(suite[0], 4, name, options);
    const RunResult streamed = RunStreamedTraceCell(path, 4, name, options);
    ExpectCellsEqual(materialized, streamed, name);
  }
}

// "twin-cell" lives in two Global() cell registries at once. Nothing
// rejects that at registration; dispatch must refuse to guess instead of
// letting one kind shadow the other.
const core::StrategyRegistrar kTwinStrategyRegistrar{"twin-cell", [] {
  return core::StrategyRegistry::Global().Find("afd-ofu");
}};
const online::OnlinePolicyRegistrar kTwinOnlineRegistrar{"twin-cell", [] {
  return std::make_shared<const online::OnlinePolicy>(
      util::RecipeInfo{"twin-cell", "test twin"},
      online::OnlineConfig{});
}};

TEST(Experiment, CellNamesInTwoRegistriesAreRejectedAtDispatch) {
  const offsetstone::Benchmark b = TinyBenchmark("x", "abab");
  const std::string trace = WriteStreamPinTrace();
  EXPECT_THROW((void)RunCell(b, 2, "twin-cell", FastOptions()),
               std::invalid_argument);
  EXPECT_THROW((void)RunCell(b, 2, "TWIN-CELL", FastOptions()),
               std::invalid_argument);
  EXPECT_THROW((void)RunStreamedTraceCell(trace, 2, "twin-cell", FastOptions()),
               std::invalid_argument);
  // Unknown names are rejected by the same resolver.
  EXPECT_THROW((void)RunCell(b, 2, "nope", FastOptions()),
               std::invalid_argument);
  EXPECT_THROW((void)RunStreamedTraceCell(trace, 2, "nope", FastOptions()),
               std::invalid_argument);
}

TEST(Experiment, BuiltinCellNamesArePairwiseDisjoint) {
  core::StrategyRegistry strategies;
  core::RegisterBuiltinStrategies(strategies);
  online::OnlinePolicyRegistry online_policies;
  online::RegisterBuiltinOnlinePolicies(online_policies);
  serve::ServePolicyRegistry serve_policies;
  serve::RegisterBuiltinServePolicies(serve_policies);
  cache::CachePolicyRegistry cache_policies;
  cache::RegisterBuiltinCachePolicies(cache_policies);
  const std::vector<std::vector<std::string>> kinds = {
      strategies.Names(), online_policies.Names(), serve_policies.Names(),
      cache_policies.Names()};
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    EXPECT_FALSE(kinds[i].empty()) << "kind " << i;
    for (std::size_t j = i + 1; j < kinds.size(); ++j) {
      std::vector<std::string> shared;
      std::set_intersection(kinds[i].begin(), kinds[i].end(),
                            kinds[j].begin(), kinds[j].end(),
                            std::back_inserter(shared));
      EXPECT_TRUE(shared.empty()) << "shared name: " << shared.front();
    }
  }
}

// Cross-kind oracles over a strategy that READS its seed. The built-in
// oracles all wrap dma-sr, which never draws a random number, so only a
// random-walk recipe exposes a cell kind that stamps the wrong seed.
online::OnlineConfig RwEngine(std::size_t window_accesses,
                              online::DetectorKind detector) {
  online::OnlineConfig config;
  config.reseed_strategy = "rw";
  config.window_accesses = window_accesses;
  config.detector.kind = detector;
  config.detector.period = 1;
  return config;
}

const online::OnlinePolicyRegistrar kOnlineStaticRw{"online-static-rw", [] {
  return std::make_shared<const online::OnlinePolicy>(
      util::RecipeInfo{"online-static-rw", "test: one window of rw"},
      RwEngine(online::kWholeTraceWindow, online::DetectorKind::kNone));
}};
const online::OnlinePolicyRegistrar kOnlineFixedRw{"online-fixed-rw", [] {
  return std::make_shared<const online::OnlinePolicy>(
      util::RecipeInfo{"online-fixed-rw", "test: rw re-seed every window"},
      RwEngine(256, online::DetectorKind::kFixedWindow));
}};
const cache::CachePolicyRegistrar kCacheRw{"cache-lru-c100-rw", [] {
  cache::CacheConfig config;
  config.eviction = "cache-lru";
  config.capacity_ratio = 1.0;
  config.engine = RwEngine(256, online::DetectorKind::kFixedWindow);
  return std::make_shared<const cache::CachePolicy>(
      util::RecipeInfo{"cache-lru-c100-rw", "test: c100 over online-fixed-rw"},
      config);
}};
const serve::ServePolicyRegistrar kServeRw{"serve-1s-static-rw", [] {
  serve::ServeConfig config;
  config.num_shards = 1;
  config.engine =
      RwEngine(online::kWholeTraceWindow, online::DetectorKind::kNone);
  return std::make_shared<const serve::ServePolicy>(
      util::RecipeInfo{"serve-1s-static-rw", "test: one shard of rw"},
      config);
}};

/// Uniform random sequences, large enough that a short random walk's
/// best placement depends on its seed.
offsetstone::Benchmark RwPinBenchmark(std::size_t num_sequences) {
  offsetstone::Benchmark b;
  b.name = "rwpin";
  util::Rng rng(0x5EED);
  for (std::size_t s = 0; s < num_sequences; ++s) {
    trace::AccessSequence seq;
    for (std::size_t v = 0; v < 40; ++v) {
      (void)seq.AddVariable(util::Concat({"v", std::to_string(v)}));
    }
    for (std::size_t i = 0; i < 600; ++i) {
      seq.Append(static_cast<trace::VariableId>(rng.NextBelow(40)),
                 rng.NextBool(0.3) ? trace::AccessType::kWrite
                                   : trace::AccessType::kRead);
    }
    b.sequences.push_back(std::move(seq));
  }
  return b;
}

void ExpectCountersEqual(const RunResult& a, const RunResult& b) {
  const std::string label = a.strategy_name + " vs " + b.strategy_name;
  EXPECT_EQ(a.metrics.shifts, b.metrics.shifts) << label;
  EXPECT_EQ(a.metrics.accesses, b.metrics.accesses) << label;
  EXPECT_EQ(a.placement_cost, b.placement_cost) << label;
  EXPECT_EQ(a.search_evaluations, b.search_evaluations) << label;
}

TEST(Experiment, SeededOraclesHoldAcrossCellKinds) {
  const ExperimentOptions options = FastOptions();
  const offsetstone::Benchmark three = RwPinBenchmark(3);
  const RunResult rw = RunCell(three, 4, "rw", options);
  // The pin is live: another experiment seed moves the rw cell.
  ExperimentOptions reseeded = options;
  ++reseeded.seed;
  EXPECT_NE(RunCell(three, 4, "rw", reseeded).metrics.shifts,
            rw.metrics.shifts);

  // Every sequence index reaches the online stamp.
  ExpectCountersEqual(RunCell(three, 4, "online-static-rw", options), rw);
  // The cache stamp at full capacity: no miss, same engine seeds.
  ExpectCountersEqual(RunCell(three, 4, "cache-lru-c100-rw", options),
                      RunCell(three, 4, "online-fixed-rw", options));
  // The serve stamp is sequence 0's.
  const offsetstone::Benchmark one = RwPinBenchmark(1);
  ExpectCountersEqual(RunCell(one, 4, "serve-1s-static-rw", options),
                      RunCell(one, 4, "online-static-rw", options));
}

TEST(Experiment, DeterministicAcrossRuns) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("det", "abcdabcdabcd")};
  ExperimentOptions options = FastOptions();
  options.strategies = core::PaperStrategies();
  options.dbc_counts = {2};
  const auto a = RunMatrix(suite, options);
  const auto b = RunMatrix(suite, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.shifts, b[i].metrics.shifts);
    EXPECT_DOUBLE_EQ(a[i].metrics.runtime_ns, b[i].metrics.runtime_ns);
  }
}

}  // namespace
}  // namespace rtmp::sim
