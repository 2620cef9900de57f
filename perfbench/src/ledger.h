// The per-layer ledger: every metric of the traced run, the end-to-end
// metrics it is expected to move, the workloads whose layer stack does
// that work, and — where one exists — the matching row of ROADMAP's
// "Baseline for items 1–2" table (measured on a faster 4-core machine;
// printed for orientation only, never asserted).
#pragma once

#include <string_view>

namespace perfbench {

class Report;

struct LedgerRow {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  const char* moves;   ///< end-to-end metrics this layer metric moves
  const char* active;  ///< workloads where the layer does most of the work
  const char* baseline;  ///< ROADMAP baseline row, or nullptr
};

// Layer metrics on a workload where the layer is idle read 0.
inline constexpr LedgerRow kLedger[] = {
    {"workloads.generate_macc_s", "Macc/s", "higher", "setup_s", "all",
     nullptr},
    {"trace.text_read_macc_s", "Macc/s", "higher", "wall_s, accesses_per_s",
     "trace-replay", "text trace read: 9 Macc/s"},
    {"trace.binary_read_macc_s", "Macc/s", "higher", "wall_s, accesses_per_s",
     "trace-replay", "binary trace read: 78 Macc/s"},
    {"core.place_ms.heuristic", "ms", "lower", "wall_s",
     "paper-matrix, trace-replay", nullptr},
    {"core.place_ms.dma-sr", "ms", "lower", "wall_s",
     "paper-matrix, trace-replay",
     "dma-sr placement: 64 ms (1M accesses, 1,024 vars, 16 DBCs)"},
    {"core.place_ms.ga", "ms", "lower", "wall_s", "paper-matrix", nullptr},
    {"core.place_ms.rw", "ms", "lower", "wall_s", "paper-matrix", nullptr},
    {"core.ga_evals_per_s", "1/s", "higher", "wall_s", "paper-matrix",
     nullptr},
    {"core.rw_evals_per_s", "1/s", "higher", "wall_s", "paper-matrix",
     nullptr},
    {"core.shift_cost_macc_s", "Macc/s", "higher", "wall_s",
     "trace-replay, paper-matrix", "ShiftCost: 434 Macc/s"},
    {"sim.simulate_macc_s", "Macc/s", "higher", "wall_s, accesses_per_s",
     "trace-replay, paper-matrix", "sim::Simulate: 105 Macc/s"},
    {"sim.cell_p50_ms", "ms", "lower", "wall_s", "paper-matrix", nullptr},
    {"sim.cell_p95_ms", "ms", "lower", "wall_s", "paper-matrix", nullptr},
    {"sim.parallel_efficiency", "ratio", "higher", "wall_s", "paper-matrix",
     nullptr},
    {"rtm.execute_batch_macc_s", "Macc/s", "higher", "accesses_per_s",
     "adaptive-stream, tiered-serve", nullptr},
    {"rtm.shifts_per_access", "ratio", "lower", "shifts, sim_runtime_ms",
     "all", nullptr},
    {"rtm.exposed_shift_share", "ratio", "lower", "shifts, sim_runtime_ms",
     "all", nullptr},
    {"online.feed_macc_s", "Macc/s", "higher",
     "accesses_per_s, decide_p99_us", "adaptive-stream",
     "online, EWMA + refine: 0.4 Macc/s"},
    {"online.static_feed_macc_s", "Macc/s", "higher",
     "accesses_per_s, decide_p99_us", "adaptive-stream",
     "online, static: 42-59 Macc/s"},
    {"online.reseed_ms", "ms", "lower",
     "wall_s, decide_p50_us, decide_p99_us", "adaptive-stream", nullptr},
    {"online.reseed_share", "ratio", "lower",
     "wall_s, decide_p50_us, decide_p99_us", "adaptive-stream", nullptr},
    {"online.evaluations_per_window", "count", "lower",
     "wall_s, decide_p50_us, decide_p99_us", "adaptive-stream", nullptr},
    {"online.windows", "count", "higher",
     "shifts, energy_uj, sim_window_p99_ns", "adaptive-stream", nullptr},
    {"online.phase_changes", "count", "lower",
     "shifts, energy_uj, sim_window_p99_ns", "adaptive-stream", nullptr},
    {"online.migrations", "count", "lower",
     "shifts, energy_uj, sim_window_p99_ns", "adaptive-stream", nullptr},
    {"online.reseed_accept_ratio", "ratio", "higher",
     "shifts, energy_uj, sim_window_p99_ns", "adaptive-stream", nullptr},
    {"online.migration_shift_share", "ratio", "lower",
     "shifts, energy_uj, sim_window_p99_ns", "adaptive-stream", nullptr},
    {"online.decide_p50_us", "us", "lower", "decide_p50_us",
     "adaptive-stream", nullptr},
    {"online.decide_p99_us", "us", "lower", "decide_p99_us",
     "adaptive-stream", nullptr},
    {"online.decide_samples", "count", "higher",
     "decide_p50_us, decide_p99_us", "adaptive-stream", nullptr},
    {"online.sim_window_p50_ns", "ns", "lower", "sim_window_p50_ns",
     "adaptive-stream", nullptr},
    {"online.sim_window_p99_ns", "ns", "lower", "sim_window_p99_ns",
     "adaptive-stream", nullptr},
    {"cache.feed_macc_s", "Macc/s", "higher", "accesses_per_s",
     "tiered-serve", "cache shift-aware, c50: 4.3 Macc/s"},
    {"cache.hit_ratio", "ratio", "higher",
     "shifts, energy_uj, sim_runtime_ms, sim_window_p99_ns", "tiered-serve",
     nullptr},
    {"cache.fill_shift_share", "ratio", "lower",
     "shifts, energy_uj, sim_runtime_ms, sim_window_p99_ns", "tiered-serve",
     nullptr},
    {"cache.writeback_ratio", "ratio", "lower",
     "shifts, energy_uj, sim_runtime_ms, sim_window_p99_ns", "tiered-serve",
     nullptr},
    {"cache.backing_share", "ratio", "lower",
     "shifts, energy_uj, sim_runtime_ms, sim_window_p99_ns", "tiered-serve",
     nullptr},
    {"serve.run_macc_s", "Macc/s", "higher", "accesses_per_s",
     "tiered-serve", nullptr},
    {"serve.plain_run_macc_s", "Macc/s", "higher", "accesses_per_s",
     "tiered-serve", "serve, 4 shards, 4 / 64 tenants: 63 / 71 Macc/s"},
    {"serve.turns", "count", "higher", "sim_window_p99_ns", "tiered-serve",
     nullptr},
    {"serve.fairness", "ratio", "higher", "sim_window_p99_ns",
     "tiered-serve", nullptr},
    {"serve.sim_window_p50_ns", "ns", "lower", "sim_window_p50_ns",
     "tiered-serve", nullptr},
    {"serve.sim_window_p99_ns", "ns", "lower", "sim_window_p99_ns",
     "tiered-serve", nullptr},
    {"bench.trace_overhead_s", "s", "lower", "wall_s (traced minus untraced)",
     "all", nullptr},
};

[[nodiscard]] const LedgerRow* FindLedgerRow(std::string_view name);

/// Prints every ledger metric the run set, beside what it moves and the
/// baseline row it corresponds to.
void PrintLedger(const Report& report);

}  // namespace perfbench
