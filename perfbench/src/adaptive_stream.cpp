// adaptive-stream: one long phase-changing stream over 1,280 variables,
// served by one OnlineEngine (EWMA drift detector + refinement, dma-sr
// re-seed) and fed exactly one window per Feed(span) call. Re-seed,
// refinement and migration — the slowest layer of the stack — do most of
// the work; the trace, cache and serve layers are idle.
//
// Phases last two windows. Short phases over small scattered working sets
// make the engine adopt some re-seeds and refuse others, and they average
// the stream over many independent phases, so its modelled totals move by
// well under 1% between seeds.
#include <cmath>
#include <span>

#include "online/engine.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/generators.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace trace = rtmp::trace;
namespace online = rtmp::online;

constexpr std::size_t kWindow = 256;  // the policy's window size
constexpr std::size_t kVariables = 1280;
constexpr std::size_t kSegments = 512;
constexpr std::size_t kSegmentAccesses = 2 * kWindow;
/// Variables one segment touches, drawn afresh for every segment.
constexpr std::size_t kWorkingSet = 48;
constexpr unsigned kDbcs = 16;

/// Appends `accesses` accesses of `segment` (cycled), its local variable v
/// mapped to global id members[v mod |members|] (generators may add a few
/// globals beyond their num_vars).
void AppendSegment(trace::AccessSequence& stream,
                   const trace::AccessSequence& segment,
                   const std::vector<trace::VariableId>& members,
                   std::size_t accesses) {
  for (std::size_t i = 0; i < accesses; ++i) {
    const trace::Access& access = segment[i % segment.size()];
    stream.Append(members[access.variable % members.size()], access.type);
  }
}

/// The stream: kSegments phases, each a different generator family over
/// its own working set — kWorkingSet ids drawn from the whole variable
/// space — so both the access structure and the hot variables change at
/// every seam, and a stale placement scatters the new hot set.
trace::AccessSequence MakeStream(std::uint64_t seed) {
  rtmp::util::Rng rng(seed);
  trace::AccessSequence stream;
  std::vector<trace::VariableId> ids;
  for (std::size_t v = 0; v < kVariables; ++v) {
    ids.push_back(stream.AddVariable(trace::MakeVariableName(v)));
  }
  for (std::size_t s = 0; s < kSegments; ++s) {
    rng.Shuffle(ids);
    const std::vector<trace::VariableId> members(ids.begin(),
                                                 ids.begin() + kWorkingSet);
    trace::AccessSequence segment;
    switch (s % 4) {
      case 0:
        segment = trace::GenerateMarkov(
            {.num_vars = kWorkingSet, .length = kSegmentAccesses}, rng);
        break;
      case 1:
        segment = trace::GenerateZipf({.num_vars = kWorkingSet,
                                       .length = kSegmentAccesses,
                                       .exponent = 1.1},
                                      rng);
        break;
      case 2:
        segment = trace::GenerateLoopNest({.num_arrays = 3,
                                           .array_len = 12,
                                           .num_scalars = 4,
                                           .iterations = 32},
                                          rng);
        break;
      default:
        segment = trace::GenerateSequential(
            {.num_vars = kWorkingSet, .length = kSegmentAccesses, .window = 4},
            rng);
        break;
    }
    AppendSegment(stream, segment, members, kSegmentAccesses);
  }
  return stream;
}

online::OnlineConfig EngineConfig(const std::string& policy,
                                  const rtmp::rtm::RtmConfig& device,
                                  std::uint64_t seed) {
  online::OnlineConfig config =
      online::OnlinePolicyRegistry::Global().Find(policy)->MakeConfig();
  config.strategy_options.cost.initial_alignment = device.initial_alignment;
  config.strategy_options.ga.seed = DeriveSeed(seed, "strategy/ga");
  config.strategy_options.rw.seed = DeriveSeed(seed, "strategy/rw");
  config.controller.proactive_alignment = true;
  config.controller.lookahead = 1;
  config.obs = {};
  return config;
}

}  // namespace

void RunAdaptiveStream(const RunSettings& settings, Tracer& tracer,
                       Report& report) {
  rtmp::rtm::RtmConfig device = rtmp::sim::CellConfig(kDbcs, kVariables);
  device.initial_alignment = rtmp::rtm::InitialAlignment::kZero;
  const online::OnlineConfig config =
      EngineConfig("online-ewma-dma-sr", device, settings.seed);
  report.Setting("engine", "online-ewma-dma-sr, proactive controller (lookahead 1)");
  report.Setting("device", "16 DBCs x " + std::to_string(device.domains_per_dbc) +
                               " domains, cold (ports at offset 0)");

  trace::AccessSequence stream;
  std::uint64_t generated = 0;
  const double setup_s = MedianSetupSeconds([&] {
    {
      const Tracer::Scope span = tracer.Open("workloads.generate");
      stream = MakeStream(DeriveSeed(settings.seed, "stream"));
      generated += stream.size();
    }
    const Tracer::Scope span = tracer.Open("online.session");
    online::OnlineEngine engine(config, device);
    for (trace::VariableId v = 0; v < stream.num_variables(); ++v) {
      (void)engine.RegisterVariable(stream.name_of(v));
    }
  });

  std::vector<double> decide_s;
  online::OnlineResult result;
  const std::span<const trace::Access> accesses(stream.accesses());
  const TimedPhase phase = TimePasses(settings, tracer, [&](Tracer& t) {
    online::OnlineEngine engine(config, device);
    for (trace::VariableId v = 0; v < stream.num_variables(); ++v) {
      (void)engine.RegisterVariable(stream.name_of(v));
    }
    for (std::size_t i = 0; i < accesses.size(); i += kWindow) {
      const Clock::time_point begin = Clock::now();
      {
        const Tracer::Scope span = t.Open("online.feed");
        engine.Feed(accesses.subspan(i, kWindow));
      }
      if (!t.enabled()) decide_s.push_back(SecondsBetween(begin, Clock::now()));
    }
    result = engine.Finish();
    Fingerprint print;
    for (const online::WindowRecord& w : result.windows) {
      print.Add(static_cast<std::uint64_t>(w.phase_change) |
                static_cast<std::uint64_t>(w.replaced) << 1);
      print.Add(w.migration_shifts);
      print.Add(w.service_shifts);
      print.Add(w.window_cost);
      print.Add(w.latency_ns);
    }
    const rtmp::rtm::ControllerStats& stats = result.stats;
    print.Add(stats.shifts);
    print.Add(stats.requests);
    print.Add(stats.makespan_ns);
    print.Add(stats.channel_busy_ns);
    print.Add(stats.shift_busy_ns);
    print.Add(stats.hidden_shift_ns);
    print.Add(stats.exposed_shift_ns);
    print.Add(result.energy.total_pj());
    print.Add(static_cast<std::uint64_t>(result.evaluations));
    return print;
  });

  // Oracles the engine guarantees: shifts decompose into service plus
  // migration traffic, shift time into hidden plus exposed, and the
  // channel is never busier than the makespan.
  const rtmp::rtm::ControllerStats& stats = result.stats;
  const bool shifts_ok =
      result.service_shifts + result.migration_shifts == stats.shifts;
  const bool split_ok =
      std::abs(stats.hidden_shift_ns + stats.exposed_shift_ns -
               stats.shift_busy_ns) <= 1e-9 * stats.shift_busy_ns;
  const bool channel_ok = stats.channel_busy_ns <= stats.makespan_ns;
  const bool served_ok = stats.requests ==
                         stream.size() + result.migration_accesses;
  report.Gate("service + migration shifts == stats.shifts", 1, shifts_ok ? 0 : 1);
  report.Gate("hidden + exposed == shift_busy", 1, split_ok ? 0 : 1);
  report.Gate("channel_busy <= makespan", 1, channel_ok ? 0 : 1);
  report.Gate("every input access served", 1, served_ok ? 0 : 1);
  const bool stream_ok = shifts_ok && split_ok && channel_ok && served_ok;

  SimTotals totals;
  totals.shifts = stats.shifts;
  totals.runtime_ns = stats.makespan_ns;
  totals.energy_pj = result.energy.total_pj();
  ReportCommon(report, settings, setup_s, phase, stream.size(), totals, 1,
               stream_ok ? 0 : 1);

  std::vector<double> window_ns;
  std::size_t phase_changes = 0;
  std::size_t reseed_accepts = 0;
  for (const online::WindowRecord& w : result.windows) {
    window_ns.push_back(w.latency_ns);
    if (w.phase_change) {
      ++phase_changes;
      if (w.replaced) ++reseed_accepts;
    }
  }
  report.PercentileInfo("decide_p50_us", decide_s, 0.50, 1e6, "us");
  report.PercentileInfo("decide_p99_us", decide_s, 0.99, 1e6, "us");
  report.PercentileInfo("sim_window_p50_ns", window_ns, 0.50, 1.0, "ns");
  report.PercentileInfo("sim_window_p99_ns", window_ns, 0.99, 1.0, "ns");
  report.Info("stream variables", static_cast<double>(stream.num_variables()),
              "count");
  if (!settings.trace) return;

  // ---- per-layer ledger ----------------------------------------------------
  const auto windows = static_cast<double>(result.windows.size());
  report.Layer("workloads.generate_macc_s",
               static_cast<double>(generated) /
                   tracer.Total("workloads.generate") / 1e6);
  report.Layer("online.feed_macc_s", static_cast<double>(stream.size()) /
                                         tracer.Total("online.feed") / 1e6);
  {
    // The static policy at the same window size: the detector-off fast
    // path the ROADMAP baseline's "online, static" row measures.
    online::OnlineConfig static_config =
        EngineConfig("online-static-dma-sr", device, settings.seed);
    static_config.window_accesses = kWindow;
    online::OnlineEngine engine(static_config, device);
    for (trace::VariableId v = 0; v < stream.num_variables(); ++v) {
      (void)engine.RegisterVariable(stream.name_of(v));
    }
    {
      const Tracer::Scope span = tracer.Open("online.static_feed");
      engine.Feed(accesses);
    }
    (void)engine.Finish();
    report.Layer("online.static_feed_macc_s",
                 static_cast<double>(stream.size()) /
                     tracer.Total("online.static_feed") / 1e6);
  }
  report.Layer("online.reseed_ms", result.placement_wall_ms);
  // `result` is the traced pass's (the last one run).
  report.Layer("online.reseed_share",
               result.placement_wall_ms / 1e3 / phase.traced_s);
  report.Layer("online.evaluations_per_window",
               static_cast<double>(result.evaluations) / windows);
  report.Layer("online.windows", windows);
  report.Layer("online.phase_changes", static_cast<double>(phase_changes));
  report.Layer("online.migrations", static_cast<double>(result.migrations));
  report.Layer("online.reseed_accept_ratio",
               phase_changes == 0 ? 0.0
                                  : static_cast<double>(reseed_accepts) /
                                        static_cast<double>(phase_changes));
  report.Layer("online.migration_shift_share",
               static_cast<double>(result.migration_shifts) /
                   static_cast<double>(stats.shifts));
  report.Layer("online.decide_p50_us",
               Percentile(decide_s, 0.50).value_or(0.0) * 1e6);
  report.Layer("online.decide_p99_us",
               Percentile(decide_s, 0.99).value_or(0.0) * 1e6);
  report.Layer("online.decide_samples", static_cast<double>(decide_s.size()));
  report.Layer("online.sim_window_p50_ns",
               Percentile(window_ns, 0.50).value_or(0.0));
  report.Layer("online.sim_window_p99_ns",
               Percentile(window_ns, 0.99).value_or(0.0));

  const std::vector<PlacedSequence> placed{
      {&stream, result.final_placement, device}};
  const RtmProbe rtm_probe = ProbeExecuteBatch(tracer, placed, config.controller);
  report.Layer("rtm.execute_batch_macc_s", rtm_probe.macc_s);
  report.Layer("rtm.shifts_per_access", static_cast<double>(stats.shifts) /
                                            static_cast<double>(stream.size()));
  report.Layer("rtm.exposed_shift_share", ExposedShare(stats));
  report.Info("re-seeds adopted", static_cast<double>(reseed_accepts),
              "count");
}

}  // namespace perfbench
