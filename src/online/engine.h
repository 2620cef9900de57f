// The online adaptive placement engine.
//
// The paper's strategies are offline: one placement per sequence, chosen
// from the full trace. This engine serves the trace in windows and adapts
// the placement while traffic flows, charging every adaptation as real
// device work:
//
//  1. Accesses are buffered into fixed-size windows (the controller's
//     batching epoch). A window is the unit of decision AND of service:
//     the engine decides the layout for a window after collecting it,
//     then issues it to the device — the epoch-batch model of runtime-
//     reconfigurable racetrack systems (R4-style).
//  2. At each window boundary a PhaseDetector (online/phase_detector.h)
//     inspects the window's transition-weight distribution. On a declared
//     phase change, the re-seed strategy — ANY registry strategy
//     (core/strategy_registry.h) — produces a candidate placement from
//     the window, and the engine accepts it only when the candidate's
//     analytic window cost plus the migration estimate beats the current
//     placement's window cost (migration-aware accept rule).
//  3. Without a phase change the engine can still refine incrementally:
//     a bounded greedy pass over the window's kRefineTopK hottest
//     variables. Each candidate move is priced with one walk over the
//     window (core::ShiftCostOfSlots over a slot table), and the best one
//     is committed only when its saving beats a conservative per-move
//     migration estimate.
//  4. Every accepted layout change is realized by a MigrationPlanner
//     traffic plan (online/migration.h) executed on the engine's live
//     rtm::RtmController — the reported shifts, latency and energy
//     therefore INCLUDE migration overhead, and track alignments carry
//     across windows and migrations exactly as hardware would.
//
// Oracle property (pinned by tests/online_engine_test.cpp): with
// detection disabled and one window covering the whole trace, the engine
// degenerates to the wrapped static strategy — placement and analytic
// cost are bit-identical, and the serial controller replay reproduces
// sim::Simulate's shift count exactly. With migrations, total shifts
// decompose into service + migration traffic, verified against an
// independently spliced request stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/placement.h"
#include "core/placement_workspace.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "obs/obs.h"
#include "online/migration.h"
#include "online/phase_detector.h"
#include "rtm/config.h"
#include "rtm/controller.h"
#include "rtm/energy_model.h"
#include "trace/access_sequence.h"

namespace rtmp::online {

/// Hottest window variables the refinement pass may try to move.
inline constexpr std::size_t kRefineTopK = 8;

/// Sentinel for "one window covering the whole trace".
inline constexpr std::size_t kWholeTraceWindow =
    static_cast<std::size_t>(-1);

struct OnlineConfig {
  /// Registry strategy that seeds window 0 and re-seeds on phase changes.
  std::string reseed_strategy = "dma-sr";
  /// Accesses per window; kWholeTraceWindow = a single window.
  std::size_t window_accesses = 256;
  PhaseDetectorConfig detector{};
  /// Skip the accept rule and adopt every re-seed candidate. Used by the
  /// decomposition tests (placements become pure per-window strategy
  /// outputs) and by oracle studies.
  bool always_accept_reseed = false;
  /// Incremental refinement between phase changes (see header comment).
  bool refine = false;
  /// External admission gate for migration traffic (the serve layer's
  /// shared MigrationBudget): called with the plan's estimated shifts
  /// right before a migration would be charged; returning false denies
  /// the re-placement, recorded in WindowRecord::budget_denied. Null =
  /// always allowed. The gate runs AFTER the accept rule, so a denial
  /// always suppresses a migration the engine wanted.
  std::function<bool(std::uint64_t)> migration_gate;
  /// Controller timing mode for service and migration traffic.
  rtm::ControllerConfig controller{};
  /// Observability sinks (obs/obs.h). Default = disabled. Window,
  /// migration, phase-change and budget-denied events are traced as they
  /// happen; the online/* counters and the window-latency histogram are
  /// published from the result at Finish().
  obs::ObsConfig obs{};
  /// Strategy tuning handed to every re-seed run (effort, cost options,
  /// base seeds). Window 0 uses the seeds verbatim — the single-window
  /// oracle is bit-identical to the static strategy; later windows use
  /// WindowSeed().
  core::StrategyOptions strategy_options{};
};

/// Deterministic per-window search seed: window 0 returns `base`
/// unchanged (oracle equality with the static strategy), later windows
/// mix the index in.
[[nodiscard]] std::uint64_t WindowSeed(std::uint64_t base,
                                       std::size_t window);

/// What happened at one window boundary.
struct WindowRecord {
  /// Index of the window's first access in the served sequence.
  std::size_t begin = 0;
  std::size_t accesses = 0;
  /// Detector verdict for this window (always false for window 0).
  bool phase_change = false;
  double drift = 0.0;
  /// The engine adopted a new placement before serving this window.
  bool replaced = false;
  std::size_t migrated_vars = 0;
  std::uint64_t migration_shifts = 0;
  std::uint64_t service_shifts = 0;
  /// Analytic shift cost of the window under the placement that served
  /// it (first-access-free per window; the device charge differs by the
  /// carried-over alignments).
  std::uint64_t window_cost = 0;
  /// The migration gate denied a re-placement the engine had accepted
  /// (see OnlineConfig::migration_gate).
  bool budget_denied = false;
  /// Makespan advance of this window: migration + service time it added
  /// to the controller timeline, including waits behind a shared channel
  /// — the serve layer's per-tenant exposed latency.
  double latency_ns = 0.0;
};

struct OnlineResult {
  std::vector<WindowRecord> windows;
  /// Windows whose placement changed (re-seed accepts + refinements).
  std::size_t migrations = 0;
  /// Migrations the migration_gate denied after the accept rule.
  std::size_t budget_denials = 0;
  std::size_t migrated_vars = 0;
  std::uint64_t service_shifts = 0;
  std::uint64_t migration_shifts = 0;
  /// service_shifts + migration_shifts == stats.shifts: the headline
  /// "shifts including migration overhead" number.
  std::uint64_t amortized_shifts = 0;
  std::uint64_t migration_accesses = 0;
  std::uint64_t reads = 0;   ///< incl. migration reads
  std::uint64_t writes = 0;  ///< incl. migration writes
  /// Controller view of the whole run (service + migration traffic).
  rtm::ControllerStats stats{};
  rtm::EnergyBreakdown energy{};
  /// Sum of WindowRecord::window_cost (analytic, migration excluded).
  std::uint64_t placement_cost = 0;
  /// Wall time spent inside re-seed strategy runs.
  double placement_wall_ms = 0.0;
  /// Strategy evaluations plus refinement trial scores.
  std::size_t evaluations = 0;
  core::Placement final_placement{0, 1};
};

/// One streaming session: register variables, feed blocks of accesses to
/// them, then Finish(). Holds one window plus the placement and device
/// state — never the whole trace.
class OnlineEngine {
 public:
  /// Validates the configuration: the re-seed strategy must be
  /// registered, window_accesses non-zero and the cost options must have
  /// exactly one port, as the device does (the device configuration
  /// validates itself through the controller). Throws
  /// std::invalid_argument.
  OnlineEngine(OnlineConfig config, rtm::RtmConfig device);

  /// Registers a variable without accessing it (returns its id; idempotent
  /// per name). Ids are dense in registration order; a caller that knows
  /// the variable space up front — RunOnline does, for bit-equality with
  /// the static strategies on sequences that declare zero-access
  /// variables — registers it in id order before the first Feed.
  trace::VariableId RegisterVariable(std::string_view name);

  /// Appends a block of accesses, deciding and serving every window
  /// boundary the block crosses in place — one call per quantum, and the
  /// window service path runs allocation-free (the request block and
  /// pricing scratch are reused across windows). `id_offset` is added to
  /// every variable id in the block (the serve layer's per-tenant base
  /// id); the shifted ids must be registered. A shifted id that is
  /// unregistered, or that overflows 32 bits, throws std::out_of_range
  /// before any access of the block is fed; any call after Finish()
  /// throws std::logic_error, an empty block included.
  /// How a stream is cut into blocks changes nothing: windows break at
  /// the same boundaries and see the same accesses whether it is fed one
  /// access per call or whole.
  void Feed(std::span<const trace::Access> accesses,
            trace::VariableId id_offset = 0);

  /// Forces a window boundary now: the buffered partial window is
  /// decided and served as if it had filled up; no-op on an empty
  /// buffer. The serve layer closes every arbitration turn with this, so
  /// engine windows align 1:1 with (tenant, turn) batches. Throws
  /// std::logic_error after Finish().
  void FlushWindow();

  /// Called once per processed window, after the window's placement is
  /// final (post re-seed / refinement / migration) and before the
  /// window's service traffic is issued, with the placement the window
  /// will be served under and the engine's live controller. The cache
  /// tier (cache/engine.h) executes its planned evict+fill sweeps here:
  /// the traffic lands between migration and service on the controller
  /// timeline, inside the window's latency_ns, and pollutes neither
  /// service_shifts nor migration_shifts — which is what lets fill
  /// shifts be accounted as their own term of the device-total
  /// decomposition. The hook runs on the buffered AND the direct-span
  /// window paths. Replacing the hook mid-session is allowed; pass
  /// nullptr to clear.
  using PreServeHook =
      std::function<void(const core::Placement&, rtm::RtmController&)>;
  void SetPreServeHook(PreServeHook hook) {
    pre_serve_hook_ = std::move(hook);
  }

  /// The placement currently serving traffic; meaningful once placed()
  /// (window 0 has been decided). The cache tier peeks slots through
  /// this for shift-aware victim ranking.
  [[nodiscard]] const core::Placement& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] bool placed() const noexcept { return placed_; }

  /// Flushes the trailing partial window and returns the run's result,
  /// publishing its online/* counters into config.obs.metrics. A session
  /// that never saw an access still runs the re-seed strategy once over
  /// the (possibly empty) variable space, mirroring the static path. The
  /// engine cannot be fed afterwards.
  [[nodiscard]] OnlineResult Finish();

  [[nodiscard]] std::size_t variables_seen() const noexcept {
    return window_seq_.num_variables();
  }

  /// Window records so far (grows by exactly one per processed window);
  /// the serve layer reads the latest record for per-turn attribution.
  [[nodiscard]] const std::vector<WindowRecord>& Windows() const noexcept {
    return result_.windows;
  }

  /// Live controller view of everything executed so far (service plus
  /// migration traffic); totals move only at window boundaries.
  [[nodiscard]] const rtm::ControllerStats& DeviceStats() const noexcept {
    return controller_.stats();
  }

  /// Energy of everything executed so far (leakage over the makespan).
  [[nodiscard]] rtm::EnergyBreakdown DeviceEnergy() const {
    return controller_.Energy();
  }

 private:
  void ProcessWindow();
  /// Serves one full window straight from a fed span — the steady-state
  /// fast path of the batched Feed (no buffer copy, no second pass).
  /// Only taken when it is bit-identical to the buffered path: placement
  /// settled (no re-seed, no refinement, no unplaced variables), detector
  /// kNone.
  void ProcessWindowFromSpan(std::span<const trace::Access> block,
                             trace::VariableId id_offset);
  /// Whether ProcessWindowFromSpan may serve the next full window.
  [[nodiscard]] bool DirectServeEligible() const noexcept;
  /// Extends `placement_` over variables that appeared this window:
  /// each goes to the emptiest DBC (lowest index on ties). First
  /// placement of a variable is not migration — nothing moves.
  void PlaceNewVariables();
  /// Runs the re-seed strategy over the current window with the
  /// per-window seed, in the engine's workspace; accumulates wall time
  /// and evaluations.
  [[nodiscard]] core::Placement Reseed();
  /// Bounded greedy refinement of `placement_` (see header comment);
  /// returns true when any move was committed.
  bool Refine(WindowRecord& record);
  /// Executes a migration plan on the controller and books it into
  /// `record` and the running totals.
  void ChargeMigration(const MigrationPlan& plan, WindowRecord& record);
  /// Issues `accesses` (shifted by `id_offset`) under `placement_` and
  /// prices them into `record`. The buffered path passes the window
  /// buffer with offset 0; the direct path passes the fed span. A caller
  /// that already priced the window under `placement_` (a refused
  /// re-seed) passes it as `known_cost`, and the walk only issues.
  void ServeWindow(WindowRecord& record,
                   std::span<const trace::Access> accesses,
                   trace::VariableId id_offset,
                   std::optional<std::uint64_t> known_cost = std::nullopt);
  /// Traces the window span (both window paths).
  void TraceWindow(const WindowRecord& record, double begin_ns);
  /// Books a migration the gate denied into `record` and the result, and
  /// traces it (both denial sites).
  void DenyMigration(WindowRecord& record, std::uint64_t estimated_shifts);

  OnlineConfig config_;
  rtm::RtmConfig device_config_;
  rtm::RtmController controller_;
  PhaseDetector detector_;
  PreServeHook pre_serve_hook_;
  /// The rolling window buffer: the variable space accumulates across
  /// the session (ids are feed order), the accesses are the CURRENT
  /// window only (cleared after each ProcessWindow) — no per-window
  /// name-table rebuild.
  trace::AccessSequence window_seq_;
  core::Placement placement_{0, 1};
  bool placed_ = false;
  bool finished_ = false;
  std::size_t windows_processed_ = 0;
  std::size_t served_accesses_ = 0;
  OnlineResult result_;
  /// Reusable window-service request block: built once per window,
  /// capacity survives across windows (no per-window allocation).
  std::vector<rtm::TimedRequest> request_scratch_;
  /// Per-DBC last-offset scratch for the fused window cost (the
  /// SinglePortWalk folded into the request-building pass).
  std::vector<std::int64_t> last_off_scratch_;
  /// Refine's per-variable window frequencies, indexed by id. All zero
  /// between calls: Refine counts only the window's accesses and resets
  /// only the ids it touched.
  std::vector<std::uint64_t> refine_freq_scratch_;
  /// Refine's other scratch, reused across calls: the hot variables, the
  /// window's access runs, the slot table and per-DBC fill it prices
  /// moves from, and the placement with the committed moves.
  std::vector<trace::VariableId> refine_hot_;
  std::vector<trace::VariableId> refine_runs_;
  std::vector<core::Slot> refine_slots_;
  std::vector<std::uint32_t> refine_fill_;
  core::Placement refined_{0, 1};
  /// The window's transition summary and its counting-pass buffers,
  /// rebuilt in place every window the detector reads.
  TransitionSummary summary_;
  TransitionScratch summary_scratch_;
  /// The re-seed strategy, resolved once, and its request: options are
  /// copied once; each re-seed sets the pointers and the window seeds.
  std::shared_ptr<const core::PlacementStrategy> reseed_strategy_;
  core::PlacementRequest reseed_request_;
  /// Scratch of every phase-change re-seed: once it has grown to the
  /// largest re-seed seen, a re-seed allocates only the candidate
  /// placement it returns.
  core::PlacementWorkspace workspace_;
  /// The plan of the migration being charged, rebuilt in place: only an
  /// accepted, granted re-seed (or a committed refinement) is planned.
  MigrationPlan plan_;
};

/// Convenience: feeds a whole sequence through one session.
[[nodiscard]] OnlineResult RunOnline(const trace::AccessSequence& seq,
                                     const OnlineConfig& config,
                                     const rtm::RtmConfig& device);

}  // namespace rtmp::online
