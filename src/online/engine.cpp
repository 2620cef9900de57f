// rtmlint: hot-path — the batched Feed/ServeWindow path carries
// perfbench's online.feed rates; allocations here are advisory findings.
#include "online/engine.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/cost_model.h"
#include "core/strategy_registry.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "online/migration.h"
#include "util/rng.h"

namespace rtmp::online {

namespace {

using TraceArg = obs::TraceRecorder::Arg;

/// The online/* counters and window-latency histogram of one finished
/// run, added into `metrics`.
void PublishMetrics(const OnlineResult& result,
                    obs::MetricsRegistry& metrics) {
  std::uint64_t phase_changes = 0;
  obs::Histogram& latency = metrics.Hist("online/window_latency_ns");
  for (const WindowRecord& record : result.windows) {
    if (record.phase_change) ++phase_changes;
    latency.Record(static_cast<std::uint64_t>(std::llround(record.latency_ns)));
  }
  metrics.Counter("online/windows") += result.windows.size();
  metrics.Counter("online/phase_changes") += phase_changes;
  metrics.Counter("online/migrations") += result.migrations;
  metrics.Counter("online/budget_denials") += result.budget_denials;
  metrics.Counter("online/service_shifts") += result.service_shifts;
  metrics.Counter("online/migration_shifts") += result.migration_shifts;
}

}  // namespace

std::uint64_t WindowSeed(std::uint64_t base, std::size_t window) {
  if (window == 0) return base;
  std::uint64_t state =
      base + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(window);
  return util::SplitMix64(state);
}

OnlineEngine::OnlineEngine(OnlineConfig config, rtm::RtmConfig device)
    : config_(std::move(config)),
      device_config_(std::move(device)),
      controller_(device_config_, config_.controller),
      detector_(config_.detector) {
  core::RequireSinglePort(config_.strategy_options.cost, "OnlineEngine");
  if (config_.window_accesses == 0) {
    throw std::invalid_argument("OnlineEngine: window_accesses must be >= 1");
  }
  reseed_strategy_ =
      core::StrategyRegistry::Global().Find(config_.reseed_strategy);
  if (reseed_strategy_ == nullptr) {
    throw std::invalid_argument(
        "OnlineEngine: unregistered re-seed strategy '" +
        config_.reseed_strategy + "'");
  }
  reseed_request_.num_dbcs = device_config_.total_dbcs();
  reseed_request_.capacity = device_config_.domains_per_dbc;
  reseed_request_.options = config_.strategy_options;
  // The engine prices windows itself (record.window_cost); skip the
  // constructive strategies' analytic pass.
  reseed_request_.compute_cost = false;
}

void OnlineEngine::TraceWindow(const WindowRecord& record, double begin_ns) {
  obs::TraceRecorder* trace = config_.obs.trace;
  if (trace == nullptr) return;
  const TraceArg args[] = {
      {"window_index", false, windows_processed_},
      {"accesses", false, record.accesses},
      {"shifts", false, record.service_shifts},
  };
  trace->Complete("window", config_.obs.pid, config_.obs.tid, begin_ns,
                  record.latency_ns, args);
}

void OnlineEngine::DenyMigration(WindowRecord& record,
                                 std::uint64_t estimated_shifts) {
  record.budget_denied = true;
  ++result_.budget_denials;
  obs::TraceRecorder* trace = config_.obs.trace;
  if (trace == nullptr) return;
  const TraceArg args[] = {{"shifts", false, estimated_shifts}};
  trace->Instant("budget-denied", config_.obs.pid, config_.obs.tid,
                 controller_.stats().makespan_ns, args);
}

trace::VariableId OnlineEngine::RegisterVariable(std::string_view name) {
  if (finished_) {
    throw std::logic_error("OnlineEngine: session already finished");
  }
  return window_seq_.AddVariable(std::string(name));
}

void OnlineEngine::Feed(std::span<const trace::Access> accesses,
                        trace::VariableId id_offset) {
  if (finished_) {
    throw std::logic_error("OnlineEngine: session already finished");
  }
  // Every shifted id is checked before anything is fed, as
  // variable < num_variables - id_offset: forming variable + id_offset
  // could wrap onto a small registered id.
  const std::size_t registered = window_seq_.num_variables();
  const std::size_t bound =
      id_offset < registered ? registered - id_offset : 0;
  for (const trace::Access& access : accesses) {
    if (access.variable >= bound) {
      throw std::out_of_range("OnlineEngine: unregistered variable id");
    }
  }
  // Fill the window buffer a block at a time, processing each boundary
  // as it is crossed — the same boundaries one access per call would hit
  // (a window closes exactly when it reaches window_accesses).
  const std::size_t limit = config_.window_accesses;
  std::size_t i = 0;
  while (i < accesses.size()) {
    if (window_seq_.empty() && accesses.size() - i >= limit &&
        DirectServeEligible()) {
      // Steady state: a whole window is already contiguous in the fed
      // block — serve it in place, skipping the buffer copy.
      ProcessWindowFromSpan(accesses.subspan(i, limit), id_offset);
      i += limit;
      continue;
    }
    const std::size_t take =
        std::min(limit - window_seq_.size(), accesses.size() - i);
    for (const trace::Access& access : accesses.subspan(i, take)) {
      window_seq_.Append(access.variable + id_offset, access.type);
    }
    i += take;
    if (window_seq_.size() >= limit) ProcessWindow();
  }
}

void OnlineEngine::PlaceNewVariables() {
  const std::size_t have = placement_.num_variables();
  const std::size_t want = window_seq_.num_variables();
  if (have == want) return;

  std::vector<std::vector<trace::VariableId>> lists;
  lists.reserve(placement_.num_dbcs());
  for (std::uint32_t d = 0; d < placement_.num_dbcs(); ++d) {
    lists.push_back(placement_.dbc(d));
  }
  core::Placement grown = core::Placement::FromLists(
      std::move(lists), want, placement_.capacity());
  for (trace::VariableId v = static_cast<trace::VariableId>(have); v < want;
       ++v) {
    // Emptiest DBC, lowest index on ties — deterministic and cheap. A
    // variable's FIRST placement moves nothing, so it is not migration.
    std::uint32_t best = grown.num_dbcs();
    std::size_t best_size = 0;
    for (std::uint32_t d = 0; d < grown.num_dbcs(); ++d) {
      if (grown.FreeIn(d) == 0) continue;
      if (best == grown.num_dbcs() || grown.dbc(d).size() < best_size) {
        best = d;
        best_size = grown.dbc(d).size();
      }
    }
    if (best == grown.num_dbcs()) {
      throw std::invalid_argument(
          "OnlineEngine: device too small for the streamed variable space");
    }
    grown.Append(best, v);
  }
  placement_ = std::move(grown);
}

core::Placement OnlineEngine::Reseed() {
  core::PlacementRequest& request = reseed_request_;
  // Set per call: the engine may have moved since the last re-seed. The
  // first placement runs in a passing workspace, so a session that never
  // re-seeds again (a static policy) keeps no scratch alive.
  request.sequence = &window_seq_;
  request.workspace = placed_ ? &workspace_ : nullptr;
  // Each stream derives from ITS configured base seed — window 0 uses
  // both verbatim, so the single-window oracle holds even when a caller
  // configures ga.seed != rw.seed.
  request.options.ga.seed =
      WindowSeed(config_.strategy_options.ga.seed, windows_processed_);
  request.options.rw.seed =
      WindowSeed(config_.strategy_options.rw.seed, windows_processed_);
  core::PlacementResult placed = core::RunTimed(*reseed_strategy_, request);
  result_.placement_wall_ms += placed.wall_ms;
  result_.evaluations += placed.evaluations;
  return std::move(placed.placement);
}

bool OnlineEngine::Refine(WindowRecord& record) {
  // Hottest window variables first (frequency, then id, both
  // deterministic). Only the window's accesses are counted; the touched
  // scratch entries are zeroed again once the order is fixed.
  std::vector<std::uint64_t>& freq = refine_freq_scratch_;
  if (freq.size() < window_seq_.num_variables()) {
    freq.resize(window_seq_.num_variables(), 0);
  }
  std::vector<trace::VariableId>& hot = refine_hot_;
  hot.resize(window_seq_.size());
  std::size_t distinct = 0;
  for (const trace::Access& access : window_seq_.accesses()) {
    if (freq[access.variable]++ == 0) hot[distinct++] = access.variable;
  }
  hot.resize(distinct);
  std::sort(hot.begin(), hot.end(),
            [&freq](trace::VariableId a, trace::VariableId b) {
              if (freq[a] != freq[b]) return freq[a] > freq[b];
              return a < b;
            });
  for (const trace::VariableId v : hot) freq[v] = 0;
  if (hot.size() > kRefineTopK) hot.resize(kRefineTopK);

  // Greedy moves of the hot variables, each to the end of the DBC that
  // prices the window lowest. A move is priced from a slot table: v's
  // home DBC closes its gap once, and each target d gives v the slot
  // {d, fill[d]}.
  const core::CostOptions& cost = config_.strategy_options.cost;
  refined_ = placement_;
  std::vector<core::Slot>& slots = refine_slots_;
  std::vector<std::uint32_t>& fill = refine_fill_;
  core::AccessRuns(window_seq_.accesses(), refine_runs_);
  slots.assign(placement_.slots().begin(), placement_.slots().end());
  fill.resize(placement_.num_dbcs());
  for (std::uint32_t d = 0; d < placement_.num_dbcs(); ++d) {
    fill[d] = static_cast<std::uint32_t>(placement_.dbc(d).size());
  }
  std::uint64_t current =
      core::ShiftCostOfSlots(refine_runs_, slots, fill, cost);
  auto price_move = [&](trace::VariableId v, std::uint32_t d) {
    slots[v] = core::Slot{d, fill[d]++};
    const std::uint64_t priced =
        core::ShiftCostOfSlots(refine_runs_, slots, fill, cost);
    --fill[d];
    return priced;
  };

  const std::uint64_t margin =
      EstimatedSingleMoveShifts(device_config_.domains_per_dbc);
  bool committed = false;
  for (const trace::VariableId v : hot) {
    const core::Slot home = refined_.SlotOf(v);
    const std::vector<trace::VariableId>& members = refined_.dbc(home.dbc);
    for (std::size_t i = home.offset + 1; i < members.size(); ++i) {
      --slots[members[i]].offset;
    }
    --fill[home.dbc];
    std::uint32_t best_dbc = home.dbc;
    std::uint64_t best_cost = current;
    for (std::uint32_t d = 0; d < refined_.num_dbcs(); ++d) {
      if (d == home.dbc || refined_.FreeIn(d) == 0) continue;
      const std::uint64_t priced = price_move(v, d);
      ++result_.evaluations;
      if (priced < best_cost) {
        best_cost = priced;
        best_dbc = d;
      }
    }
    // Commit only a move whose window saving clears the per-move
    // migration charge.
    if (best_dbc != home.dbc && current - best_cost > margin) {
      slots[v] = core::Slot{best_dbc, fill[best_dbc]++};
      refined_.MoveToEnd(v, best_dbc);
      current = best_cost;
      committed = true;
    } else {
      slots[v] = home;
      for (std::size_t i = home.offset + 1; i < members.size(); ++i) {
        ++slots[members[i]].offset;
      }
      ++fill[home.dbc];
    }
  }
  if (!committed) return false;

  PlanMigration(placement_, refined_, plan_);
  if (config_.migration_gate &&
      !config_.migration_gate(plan_.estimated_shifts)) {
    DenyMigration(record, plan_.estimated_shifts);
    return false;
  }
  ChargeMigration(plan_, record);
  std::swap(placement_, refined_);
  return true;
}

void OnlineEngine::ChargeMigration(const MigrationPlan& plan,
                                   WindowRecord& record) {
  if (plan.empty()) return;
  const std::uint64_t shifts_before = controller_.stats().shifts;
  const double makespan_before = controller_.stats().makespan_ns;
  controller_.ExecuteBatch(plan.requests);
  const std::uint64_t shifts = controller_.stats().shifts - shifts_before;
  record.migration_shifts += shifts;
  result_.migration_shifts += shifts;
  result_.migration_accesses += plan.requests.size();
  // One read at the old slot, one write at the new, per moved variable.
  result_.reads += plan.moves.size();
  result_.writes += plan.moves.size();
  if (obs::TraceRecorder* trace = config_.obs.trace) {
    const TraceArg args[] = {
        {"moved_vars", false, plan.moves.size()},
        {"shifts", false, shifts},
    };
    const double span_ns = controller_.stats().makespan_ns - makespan_before;
    trace->Complete("migration", config_.obs.pid, config_.obs.tid,
                    makespan_before, span_ns, args);
  }
  record.replaced = true;
  record.migrated_vars += plan.moves.size();
  ++result_.migrations;
  result_.migrated_vars += plan.moves.size();
}

void OnlineEngine::ServeWindow(WindowRecord& record,
                               std::span<const trace::Access> accesses,
                               trace::VariableId id_offset,
                               std::optional<std::uint64_t> known_cost) {
  // One pass over the window: map each access to its slot once, build
  // the batched request block in reused scratch, count reads/writes,
  // and accumulate the analytic window cost inline with
  // core::SinglePortStep, the step of ShiftCost's walk, instead of a
  // second replay of the window. A window whose cost the caller already
  // knows is not priced again.
  const core::CostOptions& cost = config_.strategy_options.cost;
  const bool fused = !known_cost.has_value();
  std::uint64_t window_cost = 0;
  const core::SinglePortStep step(cost);
  if (fused) {
    core::ValidateAgainstDomains(placement_, cost);
    last_off_scratch_.assign(placement_.num_dbcs(), core::kNoAccess);
  }
  std::uint64_t writes = 0;
  request_scratch_.clear();
  for (const trace::Access& access : accesses) {
    const core::Slot slot = placement_.SlotOf(access.variable + id_offset);
    request_scratch_.push_back(
        rtm::TimedRequest{0.0, slot.dbc, slot.offset, access.type});
    writes += access.type == trace::AccessType::kWrite;
    if (fused) window_cost += step(last_off_scratch_[slot.dbc], slot.offset);
  }
  result_.reads += accesses.size() - writes;
  result_.writes += writes;
  record.window_cost = fused ? window_cost : *known_cost;
  result_.placement_cost += record.window_cost;
  const std::uint64_t shifts_before = controller_.stats().shifts;
  controller_.ExecuteBatch(request_scratch_);
  record.service_shifts = controller_.stats().shifts - shifts_before;
  result_.service_shifts += record.service_shifts;
}

bool OnlineEngine::DirectServeEligible() const noexcept {
  return placed_ && !config_.refine &&
         config_.detector.kind == DetectorKind::kNone &&
         placement_.num_variables() == window_seq_.num_variables();
}

void OnlineEngine::ProcessWindowFromSpan(std::span<const trace::Access> block,
                                         trace::VariableId id_offset) {
  WindowRecord record;
  record.begin = served_accesses_;
  record.accesses = block.size();
  const double makespan_before = controller_.stats().makespan_ns;
  // Counter parity with the buffered path: kNone ignores the summary but
  // still counts the window.
  (void)detector_.Observe(TransitionSummary{});
  if (pre_serve_hook_) pre_serve_hook_(placement_, controller_);
  ServeWindow(record, block, id_offset);
  record.latency_ns = controller_.stats().makespan_ns - makespan_before;
  TraceWindow(record, makespan_before);
  result_.windows.push_back(record);
  served_accesses_ += block.size();
  ++windows_processed_;
}

void OnlineEngine::ProcessWindow() {
  WindowRecord record;
  record.begin = served_accesses_;
  record.accesses = window_seq_.size();
  const double makespan_before = controller_.stats().makespan_ns;

  // Every window feeds the detector — window 0 seeds the drift model so
  // a phase seam right after it is visible. kNone ignores the summary
  // entirely (the static/oracle configuration), so the service hot path
  // skips the per-window transition summarization; Observe still runs to
  // keep the observed-window counter moving.
  if (config_.detector.kind != DetectorKind::kNone) {
    SummarizeTransitions(window_seq_.accesses(), window_seq_.num_variables(),
                         summary_scratch_, summary_);
  }
  const PhaseDetector::Verdict verdict = detector_.Observe(summary_);

  // Set when a refused re-seed already priced the window under the
  // placement that will serve it.
  std::optional<std::uint64_t> window_cost;
  if (!placed_) {
    placement_ = Reseed();
    placed_ = true;
  } else {
    PlaceNewVariables();
    record.phase_change = verdict.phase_change;
    record.drift = verdict.drift;
    if (verdict.phase_change) {
      if (obs::TraceRecorder* trace = config_.obs.trace) {
        const TraceArg args[] = {{"window_index", false, windows_processed_}};
        trace->Instant("phase-change", config_.obs.pid, config_.obs.tid,
                       controller_.stats().makespan_ns, args);
      }
      core::Placement candidate = Reseed();
      // Decide on the estimate; the plan is built only for a migration
      // that will be charged.
      const MigrationEstimate estimate =
          EstimateMigration(placement_, candidate);
      if (estimate.moved > 0) {
        bool accept = config_.always_accept_reseed;
        if (!accept) {
          // Migration-aware accept: the candidate must recoup its own
          // traffic within the window that triggered it. Two plain walks
          // over the window price both placements.
          const core::CostOptions& cost = config_.strategy_options.cost;
          const std::uint64_t cost_keep =
              core::ShiftCost(window_seq_, placement_, cost);
          const std::uint64_t cost_candidate =
              core::ShiftCost(window_seq_, candidate, cost);
          result_.evaluations += 2;
          accept = cost_candidate + estimate.estimated_shifts < cost_keep;
          window_cost = cost_keep;
        }
        if (accept && config_.migration_gate &&
            !config_.migration_gate(estimate.estimated_shifts)) {
          DenyMigration(record, estimate.estimated_shifts);
          accept = false;
        }
        if (accept) {
          PlanMigration(placement_, candidate, plan_);
          ChargeMigration(plan_, record);
          placement_ = std::move(candidate);
          window_cost.reset();
        }
      }
    } else if (config_.refine) {
      (void)Refine(record);
    }
  }

  // The placement is final for this window: let the cache tier land its
  // evict+fill traffic before service (see SetPreServeHook).
  if (pre_serve_hook_) pre_serve_hook_(placement_, controller_);

  // ServeWindow prices the window (record.window_cost) fused into its
  // request-building pass, unless a refused re-seed already did, and
  // books it into result_.placement_cost.
  ServeWindow(record, window_seq_.accesses(), 0, window_cost);
  record.latency_ns = controller_.stats().makespan_ns - makespan_before;
  TraceWindow(record, makespan_before);
  result_.windows.push_back(record);
  served_accesses_ += window_seq_.size();
  window_seq_.ClearAccesses();
  ++windows_processed_;
}

void OnlineEngine::FlushWindow() {
  if (finished_) {
    throw std::logic_error("OnlineEngine: session already finished");
  }
  if (!window_seq_.empty()) ProcessWindow();
}

OnlineResult OnlineEngine::Finish() {
  if (finished_) {
    throw std::logic_error("OnlineEngine: session already finished");
  }
  // Flush the trailing partial window; a never-fed session still places
  // once so the result mirrors the static path on empty sequences.
  if (!window_seq_.empty() || !placed_) ProcessWindow();
  finished_ = true;

  result_.stats = controller_.stats();
  result_.energy = controller_.Energy();
  result_.amortized_shifts =
      result_.service_shifts + result_.migration_shifts;
  result_.final_placement = placement_;
  if (config_.obs.metrics != nullptr) {
    PublishMetrics(result_, *config_.obs.metrics);
  }
  return std::move(result_);
}

OnlineResult RunOnline(const trace::AccessSequence& seq,
                       const OnlineConfig& config,
                       const rtm::RtmConfig& device) {
  OnlineEngine engine(config, device);
  // Pre-register the full variable space in id order: zero-access
  // variables get placement slots exactly as the static strategies give
  // them, keeping the single-window oracle bit-identical.
  for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
    (void)engine.RegisterVariable(seq.name_of(v));
  }
  engine.Feed(std::span<const trace::Access>(seq.accesses()));
  return engine.Finish();
}

}  // namespace rtmp::online
