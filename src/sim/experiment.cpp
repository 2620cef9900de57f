#include "sim/experiment.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "cache/cache_cell.h"
#include "cache/cache_policy.h"
#include "core/strategy_registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "online/online_cell.h"
#include "online/policy.h"
#include "serve/serve_cell.h"
#include "serve/serve_policy.h"
#include "trace/trace_stream.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads/workload.h"

namespace rtmp::sim {

namespace {

unsigned ResolveThreadCount(unsigned requested, std::size_t num_cells) {
  unsigned threads = requested;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(1, num_cells)));
}

/// The benchmark name a streamed trace cell reports: the file's declared
/// name, or the file stem — the exact naming TraceFileWorkload uses, so
/// streamed and materialized cells key identically in ResultTable.
std::string StreamedBenchmarkName(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("RunStreamedTraceCell: cannot open " + path);
  }
  std::string name = trace::PeekTraceBenchmark(in);
  if (name.empty()) name = std::filesystem::path(path).stem().string();
  return name;
}

}  // namespace

rtm::RtmConfig CellConfig(unsigned dbcs, std::size_t num_variables) {
  // The paper's device for `dbcs`, with the DBC depth widened when a
  // sequence has more variables than the 4 KiB part can hold (cc65's
  // 1336 variables exceed the 1024 words of the 2-DBC config).
  rtm::RtmConfig config = rtm::RtmConfig::Paper(dbcs);
  const std::uint64_t capacity = config.word_capacity();
  if (num_variables > capacity) {
    const auto per_dbc = static_cast<unsigned>(
        (num_variables + dbcs - 1) / dbcs);
    config.domains_per_dbc = per_dbc;
  }
  return config;
}

std::uint64_t StampCellSearch(core::StrategyOptions& strategy,
                              const rtm::RtmConfig& device,
                              const ExperimentOptions& options,
                              std::string_view benchmark_name,
                              std::size_t sequence_index, unsigned dbcs) {
  strategy.cost.initial_alignment = device.initial_alignment;
  core::ScaleSearchEffort(strategy, options.search_effort);
  const std::uint64_t seed =
      util::HashString(benchmark_name) ^
      (options.seed + sequence_index * 0x9E3779B9ULL + dbcs);
  strategy.ga.seed = seed;
  strategy.rw.seed = seed;
  return seed;
}

void RunMetrics::Accumulate(const SimulationResult& result) {
  shifts += result.stats.shifts;
  accesses += result.stats.accesses();
  runtime_ns += result.stats.runtime_ns;
  leakage_pj += result.energy.leakage_pj;
  read_write_pj += result.energy.read_write_pj;
  shift_pj += result.energy.shift_pj;
  area_mm2 = std::max(area_mm2, result.area_mm2);
}

double SearchEffortFromEnv(double fallback) {
  // 100x the paper's search is surely a typo; non-finite and huge values
  // would otherwise overflow ScaleSearchEffort's rounding.
  constexpr double kMaxEffort = 100.0;
  const char* raw = std::getenv("RTMPLACE_EFFORT");
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  // The whole string must be the number ("0.5x" is invalid); written so
  // that NaN fails the range test too.
  if (end == raw || *end != '\0' || !(value > 0.0 && value <= kMaxEffort)) {
    return fallback;
  }
  return value;
}

unsigned ThreadCountFromEnv(unsigned fallback) {
  // Anything beyond this is surely a typo, and values above UINT_MAX
  // would otherwise wrap in the cast.
  constexpr long kMaxThreads = 1024;
  const char* raw = std::getenv("RTMPLACE_THREADS");
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  // The whole string must be the number ("4x" is invalid).
  if (end == raw || *end != '\0' || value <= 0 || value > kMaxThreads) {
    return fallback;
  }
  return static_cast<unsigned>(value);
}

void WriteJson(util::JsonWriter& writer, const RunResult& result) {
  writer.BeginObject();
  writer.Member("benchmark", result.benchmark);
  writer.Member("dbcs", result.dbcs);
  writer.Member("strategy", result.strategy_name);
  writer.Member("shifts", result.metrics.shifts);
  writer.Member("accesses", result.metrics.accesses);
  writer.Member("runtime_ns", result.metrics.runtime_ns);
  writer.Member("leakage_pj", result.metrics.leakage_pj);
  writer.Member("read_write_pj", result.metrics.read_write_pj);
  writer.Member("shift_pj", result.metrics.shift_pj);
  writer.Member("area_mm2", result.metrics.area_mm2);
  writer.Member("placement_cost", result.placement_cost);
  writer.Member("placement_wall_ms", result.placement_wall_ms);
  writer.Member("search_evaluations",
                static_cast<std::uint64_t>(result.search_evaluations));
  writer.EndObject();
}

RunResult RunResultFromJson(const util::JsonValue& value) {
  RunResult result;
  result.benchmark = value.At("benchmark").AsString();
  const std::uint64_t dbcs = value.At("dbcs").AsUInt();
  if (dbcs == 0 || dbcs > std::numeric_limits<unsigned>::max()) {
    throw std::runtime_error("RunResultFromJson: field 'dbcs' = " +
                             std::to_string(dbcs) +
                             " is not a DBC count in [1, " +
                             std::to_string(
                                 std::numeric_limits<unsigned>::max()) +
                             "]");
  }
  result.dbcs = static_cast<unsigned>(dbcs);
  result.strategy_name = value.At("strategy").AsString();
  result.metrics.shifts = value.At("shifts").AsUInt();
  result.metrics.accesses = value.At("accesses").AsUInt();
  result.metrics.runtime_ns = value.At("runtime_ns").AsDouble();
  result.metrics.leakage_pj = value.At("leakage_pj").AsDouble();
  result.metrics.read_write_pj = value.At("read_write_pj").AsDouble();
  result.metrics.shift_pj = value.At("shift_pj").AsDouble();
  result.metrics.area_mm2 = value.At("area_mm2").AsDouble();
  result.placement_cost = value.At("placement_cost").AsUInt();
  result.placement_wall_ms = value.At("placement_wall_ms").AsDouble();
  result.search_evaluations =
      static_cast<std::size_t>(value.At("search_evaluations").AsUInt());
  return result;
}

namespace {

/// The registries whose names are experiment cells.
enum class CellKind : std::uint8_t { kStrategy, kOnline, kServe, kCache };

/// Which cell registry owns `name`. The registries are independent, so a
/// name can land in two of them; dispatch is the only place where one
/// would silently shadow the other, so it refuses to guess. Throws
/// std::invalid_argument on zero owners and on more than one.
CellKind ResolveCell(std::string_view name) {
  const std::array<bool, 4> owners = {
      core::StrategyRegistry::Global().Contains(name),
      online::OnlinePolicyRegistry::Global().Contains(name),
      serve::ServePolicyRegistry::Global().Contains(name),
      cache::CachePolicyRegistry::Global().Contains(name)};
  const auto count = std::count(owners.begin(), owners.end(), true);
  if (count == 0) {
    throw std::invalid_argument(
        "'" + std::string(name) +
        "' is neither a registered strategy, an online policy, a serve "
        "policy, nor a cache policy");
  }
  if (count > 1) {
    throw std::invalid_argument(
        "'" + std::string(name) +
        "' is registered in more than one of the strategy, online-policy, "
        "serve-policy and cache-policy registries; re-register one under a "
        "distinct name");
  }
  return static_cast<CellKind>(
      std::find(owners.begin(), owners.end(), true) - owners.begin());
}

/// An empty cell under the normalized *requested* name (the registry
/// key), not Describe().name: a delegating factory may self-describe
/// differently, and the cell must stay reachable under the name the
/// caller used.
RunResult EmptyCell(std::string benchmark, unsigned dbcs,
                    std::string_view name) {
  RunResult run;
  run.benchmark = std::move(benchmark);
  run.dbcs = dbcs;
  run.strategy_name = util::ToLower(name);
  return run;
}

/// Adds one run's search tallies and device totals to its cell.
void AddToCell(RunResult& run, std::uint64_t placement_cost,
               double placement_wall_ms, std::size_t evaluations,
               const SimulationResult& simulated) {
  run.placement_cost += placement_cost;
  run.placement_wall_ms += placement_wall_ms;
  run.search_evaluations += evaluations;
  run.metrics.Accumulate(simulated);
}

/// Runs one non-empty sequence of a cell. `index` counts delivered
/// sequences, empty ones included, because the seed derivation does.
using SequenceBody =
    std::function<void(const trace::AccessSequence& seq, std::size_t index)>;

/// The per-sequence body of a strategy, online or cache cell named
/// `name`, accumulating into `run` (benchmark and dbcs already set). The
/// one dispatch RunCell's loop and the streamed trace path share.
SequenceBody CellSequenceBody(CellKind kind, std::string_view name,
                              const ExperimentOptions& options,
                              RunResult& run) {
  if (kind == CellKind::kOnline) {
    const auto policy = online::OnlinePolicyRegistry::Global().Find(name);
    return [policy, &options, &run](const trace::AccessSequence& seq,
                                    std::size_t index) {
      const auto [device, result] = online::RunOnlineSequence(
          seq, index, run.dbcs, *policy, options, run.benchmark);
      AddToCell(run, result.placement_cost, result.placement_wall_ms,
                result.evaluations,
                online::ToSimulationResult(result, device));
    };
  }
  if (kind == CellKind::kCache) {
    const auto policy = cache::CachePolicyRegistry::Global().Find(name);
    return [policy, &options, &run](const trace::AccessSequence& seq,
                                    std::size_t index) {
      const auto [device, result] = cache::RunCacheSequence(
          seq, index, run.dbcs, *policy, options, run.benchmark);
      AddToCell(run, result.online.placement_cost,
                result.online.placement_wall_ms, result.online.evaluations,
                cache::ToSimulationResult(result, device));
    };
  }
  // A strategy cell; serve cells never get here, RunCell runs them whole.
  const auto strategy = core::StrategyRegistry::Global().Find(name);
  return [strategy, &options, &run](const trace::AccessSequence& seq,
                                    std::size_t index) {
    const rtm::RtmConfig device = CellConfig(run.dbcs, seq.num_variables());
    core::PlacementRequest request;
    request.sequence = &seq;
    request.num_dbcs = device.total_dbcs();
    request.capacity = device.domains_per_dbc;
    StampCellSearch(request.options, device, options, run.benchmark, index,
                    run.dbcs);
    const core::PlacementResult placed = core::RunTimed(*strategy, request);
    AddToCell(run, placed.cost, placed.wall_ms, placed.evaluations,
              Simulate(seq, placed.placement, device));
  };
}

}  // namespace

RunResult RunCell(const offsetstone::Benchmark& benchmark, unsigned dbcs,
                  std::string_view strategy_name,
                  const ExperimentOptions& options) {
  const CellKind kind = ResolveCell(strategy_name);
  RunResult run = EmptyCell(benchmark.name, dbcs, strategy_name);
  if (kind == CellKind::kServe) {
    // The sequences are tenants of one service: the cell runs them all at
    // once, on one device.
    const bool has_variables = std::any_of(
        benchmark.sequences.begin(), benchmark.sequences.end(),
        [](const trace::AccessSequence& seq) {
          return seq.num_variables() != 0;
        });
    if (!has_variables) return run;
    const auto policy =
        serve::ServePolicyRegistry::Global().Find(strategy_name);
    const auto [device, result] =
        serve::RunServeBenchmark(benchmark, dbcs, *policy, options);
    AddToCell(run, result.placement_cost, result.placement_wall_ms,
              result.evaluations, serve::ToSimulationResult(result, device));
    return run;
  }
  const SequenceBody body = CellSequenceBody(kind, strategy_name, options, run);
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    if (benchmark.sequences[s].num_variables() != 0) {
      body(benchmark.sequences[s], s);
    }
  }
  return run;
}

RunResult RunStreamedTraceCell(const std::string& path, unsigned dbcs,
                               std::string_view strategy_name,
                               const ExperimentOptions& options) {
  const CellKind kind = ResolveCell(strategy_name);
  if (kind == CellKind::kServe) {
    // A serve cell arbitrates its tenants' sequences against each other,
    // so it needs the whole benchmark at once: materialize this one cell.
    const std::vector<std::string> spec{path};
    return RunCell(LoadWorkloads(spec, options).front(), dbcs, strategy_name,
                   options);
  }
  RunResult run = EmptyCell(StreamedBenchmarkName(path), dbcs, strategy_name);
  const SequenceBody body = CellSequenceBody(kind, strategy_name, options, run);

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("RunStreamedTraceCell: cannot open " + path);
  }
  std::size_t index = 0;
  const trace::SequenceSink sink = [&](const std::string&,
                                       trace::AccessSequence seq) {
    if (seq.num_variables() != 0) body(seq, index);
    ++index;
  };
  (void)trace::StreamTrace(in, sink);
  return run;
}

std::vector<RunResult> RunMatrix(
    const std::vector<offsetstone::Benchmark>& suite,
    const ExperimentOptions& options) {
  // Enum-backed strategies first, then the name-only extras, matching the
  // documented grid order. Deduped on the normalized name: a repeated
  // strategy would burn duplicate cells and then be silently dropped by
  // ResultTable's first-wins map.
  std::vector<std::string> strategy_names;
  strategy_names.reserve(options.strategies.size() +
                         options.extra_strategies.size());
  const auto add_name = [&strategy_names](std::string name) {
    if (std::find(strategy_names.begin(), strategy_names.end(), name) ==
        strategy_names.end()) {
      strategy_names.push_back(std::move(name));
    }
  };
  for (const core::StrategySpec& spec : options.strategies) {
    add_name(ToString(spec));
  }
  for (const std::string& name : options.extra_strategies) {
    add_name(util::ToLower(name));
  }

  struct Cell {
    std::size_t benchmark;
    unsigned dbcs;
    std::size_t strategy;
  };
  std::vector<Cell> cells;
  cells.reserve(suite.size() * options.dbc_counts.size() *
                strategy_names.size());
  for (std::size_t b = 0; b < suite.size(); ++b) {
    for (const unsigned dbcs : options.dbc_counts) {
      for (std::size_t s = 0; s < strategy_names.size(); ++s) {
        cells.push_back({b, dbcs, s});
      }
    }
  }

  std::vector<RunResult> results(cells.size());
  if (cells.empty()) return results;

  const unsigned threads = ResolveThreadCount(options.num_threads,
                                              cells.size());

  // Observability: each cell records into PRIVATE sinks (pid = cell
  // index) that are merged into the caller's sinks in grid order after
  // the parallel run — the emitted trace/metrics are therefore invariant
  // under RTMPLACE_THREADS and rerun even though cells finish in any
  // order.
  struct CellObs {
    std::unique_ptr<obs::TraceRecorder> trace;
    std::unique_ptr<obs::MetricsRegistry> metrics;
  };
  const bool obs_on = options.obs.enabled();
  std::vector<CellObs> cell_obs(obs_on ? cells.size() : 0);

  // Each worker claims the next unstarted cell and writes its result into
  // the cell's fixed slot; a lock serializes only the progress callback.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::size_t completed = 0;
  std::exception_ptr error;

  const auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells.size()) return;
      const Cell& cell = cells[i];
      try {
        const ExperimentOptions* run_options = &options;
        ExperimentOptions cell_options;
        if (obs_on) {
          cell_options = options;
          if (options.obs.trace != nullptr) {
            cell_obs[i].trace = std::make_unique<obs::TraceRecorder>();
            cell_options.obs.trace = cell_obs[i].trace.get();
          }
          if (options.obs.metrics != nullptr) {
            cell_obs[i].metrics = std::make_unique<obs::MetricsRegistry>();
            cell_options.obs.metrics = cell_obs[i].metrics.get();
          }
          cell_options.obs.pid = static_cast<std::uint32_t>(i);
          run_options = &cell_options;
        }
        results[i] = RunCell(suite[cell.benchmark], cell.dbcs,
                             strategy_names[cell.strategy], *run_options);
        if (options.progress) {
          const std::lock_guard<std::mutex> lock(mutex);
          options.progress(results[i], ++completed, cells.size());
        }
      } catch (...) {
        // Captures RunCell AND progress-callback exceptions: anything that
        // escaped a worker's entry function would std::terminate.
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  {
    // threads - 1 helpers plus the calling thread; the helpers join when
    // the scope closes.
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t) helpers.emplace_back(worker);
    worker();
  }
  if (error) std::rethrow_exception(error);

  if (obs_on) {
    // Merge the per-cell sinks in grid order and label each cell's trace
    // row. The "cell" span covers the cell's simulated makespan on a
    // synthetic tid 0; the cell's own engine events sit next to it under
    // the same pid.
    obs::TraceRecorder* trace = options.obs.trace;
    obs::MetricsRegistry* metrics = options.obs.metrics;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const RunResult& run = results[i];
      if (trace != nullptr) {
        const auto pid = static_cast<std::uint32_t>(i);
        trace->SetProcessName(pid, run.benchmark + "/" +
                                       std::to_string(run.dbcs) + "dbc/" +
                                       run.strategy_name);
        const obs::TraceRecorder::Arg args[] = {
            {"shifts", false, run.metrics.shifts},
            {"accesses", false, run.metrics.accesses},
        };
        trace->Complete("cell", pid, 0, 0.0, run.metrics.runtime_ns, args);
        if (cell_obs[i].trace != nullptr) trace->Merge(*cell_obs[i].trace);
      }
      if (metrics != nullptr && cell_obs[i].metrics != nullptr) {
        metrics->Merge(*cell_obs[i].metrics);
      }
    }
    if (metrics != nullptr) metrics->Counter("sim/cells") += cells.size();
  }
  return results;
}

std::vector<offsetstone::Benchmark> LoadWorkloads(
    std::span<const std::string> specs, const ExperimentOptions& options) {
  workloads::WorkloadRequest request;
  request.seed = options.workload_seed;
  request.scale = options.workload_scale;
  std::vector<offsetstone::Benchmark> suite;
  suite.reserve(specs.size());
  for (const std::string& spec : specs) {
    const auto workload = workloads::ResolveWorkload(spec);
    if (!workload) {
      throw std::invalid_argument(
          "LoadWorkloads: '" + spec +
          "' is neither a registered workload nor a trace file");
    }
    suite.push_back(workload->Generate(request));
  }
  return suite;
}

std::vector<RunResult> RunMatrix(std::span<const std::string> workload_specs,
                                 const ExperimentOptions& options) {
  return RunMatrix(LoadWorkloads(workload_specs, options), options);
}

std::string ResultTable::Key(const std::string& benchmark, unsigned dbcs,
                             const std::string& strategy_name) {
  // Strategy names are case-insensitive everywhere else; keep lookups
  // consistent with the registry.
  return benchmark + "|" + std::to_string(dbcs) + "|" +
         util::ToLower(strategy_name);
}

ResultTable::ResultTable(const std::vector<RunResult>& results) {
  for (const RunResult& r : results) {
    cells_.emplace(Key(r.benchmark, r.dbcs, r.strategy_name), r.metrics);
  }
}

const RunMetrics& ResultTable::At(const std::string& benchmark, unsigned dbcs,
                                  const std::string& strategy_name) const {
  const auto it = cells_.find(Key(benchmark, dbcs, strategy_name));
  if (it == cells_.end()) {
    throw std::out_of_range("ResultTable: missing cell " +
                            Key(benchmark, dbcs, strategy_name));
  }
  return it->second;
}

const RunMetrics& ResultTable::At(const std::string& benchmark, unsigned dbcs,
                                  const core::StrategySpec& strategy) const {
  return At(benchmark, dbcs, core::ToString(strategy));
}

std::vector<double> ResultTable::NormalizedShifts(
    const std::vector<std::string>& benchmarks, unsigned dbcs,
    const core::StrategySpec& strategy,
    const core::StrategySpec& baseline) const {
  std::vector<double> normalized;
  normalized.reserve(benchmarks.size());
  for (const std::string& b : benchmarks) {
    const double value = static_cast<double>(At(b, dbcs, strategy).shifts);
    const double base = static_cast<double>(At(b, dbcs, baseline).shifts);
    // A zero-shift baseline (degenerate tiny benchmark) normalizes to 1:
    // both strategies are optimal there.
    normalized.push_back(base == 0.0 ? (value == 0.0 ? 1.0 : value)
                                     : value / base);
  }
  return normalized;
}

}  // namespace rtmp::sim
