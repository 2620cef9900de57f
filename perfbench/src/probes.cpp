// Shared end-to-end reporting and the direct-call layer probes of the
// traced run. A probe calls one layer's public entry point on the
// workload's own input inside a host-time span; its rate is the work done
// divided by the span's duration.
#include <algorithm>
#include <span>

#include "core/cost_model.h"
#include "core/strategy_registry.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

std::size_t RepeatsFor(const std::vector<PlacedSequence>& placed,
                       std::uint64_t target_accesses) {
  std::uint64_t accesses = 0;
  for (const PlacedSequence& p : placed) accesses += p.sequence->size();
  if (accesses == 0) return 1;
  return static_cast<std::size_t>(
      std::max<std::uint64_t>(1, target_accesses / accesses));
}

double RateMaccS(std::uint64_t accesses, double seconds) {
  return seconds > 0.0 ? static_cast<double>(accesses) / seconds / 1e6 : 0.0;
}

}  // namespace

void ReportCommon(Report& report, const RunSettings& settings, double setup_s,
                  const TimedPhase& phase, std::uint64_t accesses_per_pass,
                  const SimTotals& totals, std::size_t attempted,
                  std::size_t failed) {
  report.Gate("timed passes bit-identical on every simulated output",
              phase.seconds.size() + (settings.trace ? 1 : 0),
              phase.identical ? 0 : phase.seconds.size());
  report.Operations(attempted, failed);
  report.Setting("timed passes (untraced)",
                 std::to_string(phase.seconds.size()));
  report.Setting("peak resident set window", phase.peak_reset
                                           ? "first two timed passes (reset after setup)"
                                           : "whole process (reset refused)");
  report.Info("median pass", Median(phase.seconds), "s");
  report.Info("slowest pass",
              *std::max_element(phase.seconds.begin(), phase.seconds.end()), "s");

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("wall_s", phase.wall_s, "s");
  report.EndToEnd("accesses_per_s",
                  static_cast<double>(accesses_per_pass) / phase.wall_s, "1/s");
  report.EndToEnd("peak_rss_mb", phase.peak_rss_mib, "MiB");
  report.EndToEnd("shifts", static_cast<double>(totals.shifts), "count");
  report.EndToEnd("sim_runtime_ms", totals.runtime_ns / 1e6, "ms");
  report.EndToEnd("energy_uj", totals.energy_pj / 1e6, "uJ");
  report.EndToEnd("success_ratio",
                  attempted == 0 ? 0.0
                                 : static_cast<double>(attempted - failed) /
                                       static_cast<double>(attempted),
                  "ratio");
  if (settings.trace) {
    report.Layer("bench.trace_overhead_s", phase.traced_s - phase.wall_s);
  }
}

std::uint64_t TotalAccesses(
    const std::vector<const rtmp::trace::AccessSequence*>& seqs) {
  std::uint64_t total = 0;
  for (const rtmp::trace::AccessSequence* seq : seqs) total += seq->size();
  return total;
}

double ExposedShare(const rtmp::rtm::ControllerStats& stats) {
  return stats.shift_busy_ns > 0.0 ? stats.exposed_shift_ns / stats.shift_busy_ns
                                   : 0.0;
}

std::vector<PlacedSequence> ProbePlace(
    Tracer& tracer, const std::vector<const rtmp::trace::AccessSequence*>& seqs,
    unsigned dbcs, const std::string& strategy, double effort,
    std::uint64_t seed, PlaceProbe& probe) {
  const auto runner = rtmp::core::StrategyRegistry::Global().Find(strategy);
  if (!runner) throw std::invalid_argument("unknown strategy " + strategy);
  const std::string span_name = "core.place/" + strategy;
  std::vector<PlacedSequence> placed;
  placed.reserve(seqs.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    PlacedSequence entry;
    entry.sequence = seqs[i];
    entry.device = rtmp::sim::CellConfig(dbcs, seqs[i]->num_variables());
    rtmp::core::PlacementRequest request;
    request.sequence = seqs[i];
    request.num_dbcs = entry.device.total_dbcs();
    request.capacity = entry.device.domains_per_dbc;
    request.options.cost.initial_alignment = entry.device.initial_alignment;
    rtmp::core::ScaleSearchEffort(request.options, effort);
    request.options.ga.seed = DeriveSeed(seed, "place/" + std::to_string(i));
    request.options.rw.seed = request.options.ga.seed;
    const Clock::time_point begin = Clock::now();
    rtmp::core::PlacementResult result;
    {
      const Tracer::Scope span = tracer.Open(span_name);
      result = runner->Run(request);
    }
    probe.seconds += SecondsBetween(begin, Clock::now());
    ++probe.calls;
    probe.evaluations += result.evaluations;
    entry.placement = std::move(result.placement);
    placed.push_back(std::move(entry));
  }
  return placed;
}

double ProbeShiftCostMaccS(Tracer& tracer,
                           const std::vector<PlacedSequence>& placed,
                           std::uint64_t target_accesses) {
  const std::size_t repeats = RepeatsFor(placed, target_accesses);
  std::uint64_t accesses = 0;
  const Clock::time_point begin = Clock::now();
  {
    const Tracer::Scope span = tracer.Open("core.shift_cost");
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const PlacedSequence& p : placed) {
        rtmp::core::CostOptions cost;
        cost.initial_alignment = p.device.initial_alignment;
        (void)rtmp::core::ShiftCost(*p.sequence, p.placement, cost);
        accesses += p.sequence->size();
      }
    }
  }
  return RateMaccS(accesses, SecondsBetween(begin, Clock::now()));
}

double ProbeSimulateMaccS(Tracer& tracer,
                          const std::vector<PlacedSequence>& placed,
                          std::uint64_t target_accesses) {
  const std::size_t repeats = RepeatsFor(placed, target_accesses);
  std::uint64_t accesses = 0;
  const Clock::time_point begin = Clock::now();
  {
    const Tracer::Scope span = tracer.Open("sim.simulate");
    for (std::size_t r = 0; r < repeats; ++r) {
      for (const PlacedSequence& p : placed) {
        const rtmp::sim::SimulationResult result =
            rtmp::sim::Simulate(*p.sequence, p.placement, p.device);
        accesses += result.stats.accesses();
      }
    }
  }
  return RateMaccS(accesses, SecondsBetween(begin, Clock::now()));
}

RtmProbe ProbeExecuteBatch(Tracer& tracer,
                           const std::vector<PlacedSequence>& placed,
                           const rtmp::rtm::ControllerConfig& controller) {
  constexpr std::size_t kBatch = 256;
  RtmProbe probe;
  std::uint64_t accesses = 0;
  double seconds = 0.0;
  std::vector<rtmp::rtm::TimedRequest> requests;
  for (const PlacedSequence& p : placed) {
    requests.clear();
    for (const rtmp::trace::Access& access : p.sequence->accesses()) {
      const rtmp::core::Slot slot = p.placement.SlotOf(access.variable);
      requests.push_back({0.0, slot.dbc, slot.offset, access.type});
    }
    rtmp::rtm::RtmController device(p.device, controller);
    const std::span<const rtmp::rtm::TimedRequest> all(requests);
    const Clock::time_point begin = Clock::now();
    {
      const Tracer::Scope span = tracer.Open("rtm.execute_batch");
      for (std::size_t i = 0; i < all.size(); i += kBatch) {
        device.ExecuteBatch(all.subspan(i, std::min(kBatch, all.size() - i)));
      }
    }
    seconds += SecondsBetween(begin, Clock::now());
    accesses += requests.size();
    const rtmp::rtm::ControllerStats& stats = device.stats();
    probe.stats.requests += stats.requests;
    probe.stats.shifts += stats.shifts;
    probe.stats.shift_busy_ns += stats.shift_busy_ns;
    probe.stats.hidden_shift_ns += stats.hidden_shift_ns;
    probe.stats.exposed_shift_ns += stats.exposed_shift_ns;
  }
  probe.macc_s = RateMaccS(accesses, seconds);
  return probe;
}

}  // namespace perfbench
