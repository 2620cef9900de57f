// Experiment engine: runs benchmark suites through strategies and RTM
// configurations and aggregates the metrics the paper's evaluation section
// reports. Every bench binary is a thin wrapper around this module.
//
// A cell is one (benchmark, dbc count, name) triple. The name belongs to
// one of four cell registries: placement strategies, online policies,
// cache policies or serve policies. Every kind runs on CellConfig's
// device and draws its search seed from StampCellSearch, so a policy
// that degenerates to a strategy reproduces that strategy's cell
// exactly. Each layer owns one runner (online::RunOnlineSequence,
// cache::RunCacheSequence, serve::RunServeBenchmark) that the cells, the
// figure scenarios and placement_explorer all share.
//
// RunMatrix fans the (benchmark x dbc count x strategy) grid across a
// std::thread pool. Cells are independent and carry their own
// deterministic seed (derived from benchmark name, sequence index and DBC
// count), so the parallel run is bit-identical to the serial one and to
// itself across machines; the result vector is always in grid order
// (benchmark-major, then dbcs, then strategy) regardless of which thread
// finished first.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy.h"
#include "obs/obs.h"
#include "offsetstone/suite.h"
#include "rtm/config.h"
#include "rtm/energy_model.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace rtmp::sim {

/// Metrics summed over all sequences of one benchmark under one strategy
/// and one RTM configuration.
struct RunMetrics {
  std::uint64_t shifts = 0;
  std::uint64_t accesses = 0;
  double runtime_ns = 0.0;
  double leakage_pj = 0.0;
  double read_write_pj = 0.0;
  double shift_pj = 0.0;
  double area_mm2 = 0.0;  ///< of the (largest) device used, not summed

  [[nodiscard]] double total_energy_pj() const noexcept {
    return leakage_pj + read_write_pj + shift_pj;
  }

  void Accumulate(const SimulationResult& result);
};

/// One (benchmark, dbc count, strategy) cell of the evaluation matrix.
struct RunResult {
  std::string benchmark;
  unsigned dbcs = 0;
  /// Registry name of the strategy this cell ran (canonical lowercase).
  std::string strategy_name;
  RunMetrics metrics;
  /// Analytic shift cost reported by the strategy (sums over sequences);
  /// cross-checks metrics.shifts from the device simulation.
  std::uint64_t placement_cost = 0;
  /// Wall time spent inside the strategy itself, summed over sequences.
  double placement_wall_ms = 0.0;
  /// Candidate placements the strategy evaluated (search effort used).
  std::size_t search_evaluations = 0;
};

/// Serializes one cell as a JSON object (the element type of the bench
/// harness' "cells" array; see bench/harness/report.h for the schema).
void WriteJson(util::JsonWriter& writer, const RunResult& result);

/// Inverse of WriteJson; throws std::runtime_error on schema mismatch,
/// including a `dbcs` that is 0 or does not fit `unsigned`.
[[nodiscard]] RunResult RunResultFromJson(const util::JsonValue& value);

/// Called after each finished cell. `completed` counts finished cells so
/// far, `total` the whole grid. Invoked under a lock, so the callback may
/// print without further synchronization, but it runs on a worker thread —
/// keep it cheap.
using ProgressCallback =
    std::function<void(const RunResult&, std::size_t completed,
                       std::size_t total)>;

struct ExperimentOptions {
  std::vector<unsigned> dbc_counts{2, 4, 8, 16};
  std::vector<core::StrategySpec> strategies = core::PaperStrategies();
  /// Additional strategies by registry name, appended after `strategies`
  /// in the grid. This is how externally registered strategies (see
  /// core::StrategyRegistrar) enter the evaluation matrix.
  std::vector<std::string> extra_strategies;
  /// GA/RW effort relative to the paper's parameters (1.0 = 200 GA
  /// generations with mu = lambda = 100 and 60 000 RW iterations). The
  /// benches default to a fraction so the full matrix runs in minutes;
  /// set the RTMPLACE_EFFORT environment variable to raise it.
  double search_effort = 0.05;
  std::uint64_t seed = 0x0FF5E7ULL;
  /// Worker threads for RunMatrix. 0 = hardware concurrency, 1 = serial
  /// (same results either way; see header comment).
  unsigned num_threads = 0;
  ProgressCallback progress;
  /// Generation seed and scale handed to workloads resolved by name
  /// (the workload-spec RunMatrix overload / LoadWorkloads). Independent
  /// of `seed`, which drives the GA/RW search streams.
  std::uint64_t workload_seed = 0;
  double workload_scale = 1.0;
  /// Observability sinks (obs/obs.h), forwarded into every cell's engine
  /// config. RunMatrix gives each cell a PRIVATE recorder/registry
  /// (pid = cell index) and merges them into these sinks in grid order
  /// after the parallel run, plus a per-cell "cell" span — so the
  /// emitted trace and metrics snapshot are invariant under
  /// RTMPLACE_THREADS and rerun. Default = disabled.
  obs::ObsConfig obs{};
};

/// Device configuration of one experiment cell: the paper's device for
/// `dbcs`, with the DBC depth widened when a sequence has more variables
/// than the 4 KiB part can hold (see the "Oversized sequences" note in
/// README.md). Every cell kind sizes its device here so their numbers
/// stay comparable; cache cells pass the resident capacity, serve cells
/// the tenants' summed variable count.
[[nodiscard]] rtm::RtmConfig CellConfig(unsigned dbcs,
                                        std::size_t num_variables);

/// Stamps the run-specific search fields of sequence `sequence_index` of
/// a (benchmark, dbcs) cell into `strategy`: the device's initial
/// alignment, options.search_effort (core::ScaleSearchEffort) and the
/// GA/RW seed. The seed is reproducible per (benchmark, sequence, dbcs)
/// and independent of which worker thread runs the cell. Every cell kind
/// calls this; serve cells stamp sequence 0. Returns the seed.
std::uint64_t StampCellSearch(core::StrategyOptions& strategy,
                              const rtm::RtmConfig& device,
                              const ExperimentOptions& options,
                              std::string_view benchmark_name,
                              std::size_t sequence_index, unsigned dbcs);

/// What a layer's cell runner returns: the device it ran on (CellConfig)
/// and the layer's own result.
template <typename Result>
struct CellRun {
  rtm::RtmConfig device;
  Result result;
};

/// Reads ExperimentOptions::search_effort from the RTMPLACE_EFFORT
/// environment variable (falls back to `fallback` when unset, invalid —
/// anything but a number with nothing after it, e.g. "0.5x" or "1 " —
/// not positive, not finite or above 100).
[[nodiscard]] double SearchEffortFromEnv(double fallback);

/// Reads ExperimentOptions::num_threads from the RTMPLACE_THREADS
/// environment variable (falls back to `fallback` when unset or invalid:
/// anything but one whole integer in [1, 1024], e.g. "4x" or "1 ").
[[nodiscard]] unsigned ThreadCountFromEnv(unsigned fallback);

/// Runs the full matrix over `suite` on a thread pool (see header
/// comment), one RunCell per grid entry. Devices follow CellConfig.
[[nodiscard]] std::vector<RunResult> RunMatrix(
    const std::vector<offsetstone::Benchmark>& suite,
    const ExperimentOptions& options);

/// Materializes workload specs — registry names (workloads/workload.h)
/// or trace-file paths — into benchmarks, generated with
/// options.workload_seed and options.workload_scale. Throws
/// std::invalid_argument on a spec that is neither.
[[nodiscard]] std::vector<offsetstone::Benchmark> LoadWorkloads(
    std::span<const std::string> specs, const ExperimentOptions& options);

/// Workload-spec entry point:
/// RunMatrix(LoadWorkloads(specs, options), options). This is how every
/// registered workload (and any external trace file) enters the
/// evaluation matrix by name.
[[nodiscard]] std::vector<RunResult> RunMatrix(
    std::span<const std::string> workload_specs,
    const ExperimentOptions& options);

/// Runs one benchmark / strategy / DBC-count cell. The name is
/// dispatched to whichever Global() cell registry owns it: strategies,
/// online, serve or cache policies (the last three are cells like any
/// other — see online/online_cell.h, serve/serve_cell.h and
/// cache/cache_cell.h). Every non-empty sequence runs on its own device
/// (a serve cell runs all of them as tenants of one service). Throws
/// std::invalid_argument when no registry knows the name, or when more
/// than one does.
[[nodiscard]] RunResult RunCell(const offsetstone::Benchmark& benchmark,
                                unsigned dbcs,
                                std::string_view strategy_name,
                                const ExperimentOptions& options);

/// Streaming twin of RunCell for an on-disk trace file: sequences are
/// delivered one at a time by trace::StreamTrace — the file is never
/// materialized as a whole — and each runs on a device sized for ITS
/// variable count, exactly as the materialized loop sizes per sequence
/// (the device-sizing policy for variable counts unknown ahead of the
/// stream). The benchmark name is peeked from the file head
/// (trace::PeekTraceBenchmark; file-stem fallback) so seeds match the
/// materialized cell's. Serve cells materialize internally — a serve
/// cell arbitrates its tenants' sequences against each other and needs
/// them all at once. Bit-identical to
/// RunCell(LoadWorkloads({path}, ...)[0], ...); dispatch and errors as
/// RunCell. Throws std::runtime_error when the file cannot be opened or
/// parsed.
[[nodiscard]] RunResult RunStreamedTraceCell(const std::string& path,
                                             unsigned dbcs,
                                             std::string_view strategy_name,
                                             const ExperimentOptions& options);

/// Index into RunMatrix results: metrics keyed by (benchmark, dbcs,
/// strategy name).
class ResultTable {
 public:
  explicit ResultTable(const std::vector<RunResult>& results);

  [[nodiscard]] const RunMetrics& At(const std::string& benchmark,
                                     unsigned dbcs,
                                     const core::StrategySpec& strategy) const;

  /// Name-keyed lookup, covering extra_strategies cells as well.
  [[nodiscard]] const RunMetrics& At(const std::string& benchmark,
                                     unsigned dbcs,
                                     const std::string& strategy_name) const;

  /// value(strategy) / value(baseline) per benchmark; the paper's Fig. 4
  /// normalizes shift counts to GA, Fig. 5 energies to AFD-OFU.
  [[nodiscard]] std::vector<double> NormalizedShifts(
      const std::vector<std::string>& benchmarks, unsigned dbcs,
      const core::StrategySpec& strategy,
      const core::StrategySpec& baseline) const;

 private:
  std::map<std::string, RunMetrics> cells_;
  static std::string Key(const std::string& benchmark, unsigned dbcs,
                         const std::string& strategy_name);
};

}  // namespace rtmp::sim
