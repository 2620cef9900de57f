// paper-matrix: the Fig. 4/5 pipeline. sim::RunMatrix over the 31
// OffsetStone-lite benchmarks x the six paper strategies x {2, 4, 8, 16}
// DBCs at a pinned search effort and thread count. Core search (GA/RW
// through the CostEvaluator) does most of the work; the online, cache and
// serve layers do none.
#include <map>
#include <thread>

#include "core/strategy.h"
#include "offsetstone/suite.h"
#include "sim/experiment.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

/// GA/RW effort relative to the paper's parameters; fixed here so
/// RTMPLACE_EFFORT cannot change what is measured.
constexpr double kSearchEffort = 0.01;
/// The suite is the paper's benchmark set as the Fig. 4/5 scenarios
/// generate it (suite seed 0); --seed drives the GA/RW search streams.
/// A seeded suite moves total shifts by 15-30% between seeds — wider than
/// any usable regression bound.
constexpr std::uint64_t kSuiteSeed = 0;
/// DBC count of the direct-call core/sim/rtm probes (one column of the
/// matrix, so the probes stay a fraction of a pass).
constexpr unsigned kProbeDbcs = 8;

/// Host time of each matrix cell, taken from RunMatrix's progress
/// callback: a worker runs its cells back to back, so a cell spans from
/// the previous completion on the same thread (or the pass start) to its
/// own completion. The callback runs under RunMatrix's lock.
class CellClock {
 public:
  void Start() {
    start_ = Clock::now();
    last_.clear();
    cell_s_.clear();
  }
  void Tick() {
    const Clock::time_point now = Clock::now();
    const auto [it, inserted] = last_.try_emplace(std::this_thread::get_id(), start_);
    cell_s_.push_back(SecondsBetween(it->second, now));
    it->second = now;
  }
  [[nodiscard]] const std::vector<double>& cell_seconds() const { return cell_s_; }

 private:
  Clock::time_point start_;
  std::map<std::thread::id, Clock::time_point> last_;
  std::vector<double> cell_s_;
};

}  // namespace

void RunPaperMatrix(const RunSettings& settings, Tracer& tracer,
                    Report& report) {
  namespace sim = rtmp::sim;
  sim::ExperimentOptions options;
  options.dbc_counts = {2, 4, 8, 16};
  options.strategies = rtmp::core::PaperStrategies();
  options.search_effort = kSearchEffort;
  options.seed = DeriveSeed(settings.seed, "search");
  options.workload_seed = kSuiteSeed;
  options.num_threads = settings.threads;
  options.obs = {};
  report.Setting("search effort", std::to_string(kSearchEffort));
  report.Setting("matrix threads", std::to_string(settings.threads));
  report.Setting("matrix grid", "31 benchmarks x 6 strategies x {2,4,8,16} DBCs");

  std::vector<rtmp::offsetstone::Benchmark> suite;
  std::uint64_t generated = 0;
  const double setup_s = MedianSetupSeconds([&] {
    const Tracer::Scope span = tracer.Open("workloads.generate");
    suite.clear();
    const rtmp::workloads::WorkloadRequest request{options.workload_seed, 1.0};
    for (const auto& profile : rtmp::offsetstone::SuiteProfiles()) {
      suite.push_back(rtmp::workloads::WorkloadRegistry::Global()
                          .Find(profile.name)
                          ->Generate(request));
      for (const auto& seq : suite.back().sequences) generated += seq.size();
    }
  });

  std::vector<sim::RunResult> results;
  CellClock cells;
  const TimedPhase phase = TimePasses(settings, tracer, [&](Tracer& t) {
    sim::ExperimentOptions pass_options = options;
    if (t.enabled()) {
      cells.Start();
      pass_options.progress = [&cells](const sim::RunResult&, std::size_t,
                                       std::size_t) { cells.Tick(); };
    }
    {
      const Tracer::Scope span = t.Open("sim.run_matrix");
      results = sim::RunMatrix(suite, pass_options);
    }
    Fingerprint print;
    for (const sim::RunResult& r : results) {
      print.Add(r.metrics.shifts);
      print.Add(r.metrics.accesses);
      print.Add(r.metrics.runtime_ns);
      print.Add(r.metrics.total_energy_pj());
      print.Add(r.placement_cost);
      print.Add(static_cast<std::uint64_t>(r.search_evaluations));
    }
    return print;
  });

  // Oracle: every paper cell is single-port, where the strategy's
  // analytic cost equals the device simulation's shift count.
  SimTotals totals;
  std::uint64_t accesses = 0;
  std::size_t failed = 0;
  for (const sim::RunResult& r : results) {
    totals.shifts += r.metrics.shifts;
    totals.runtime_ns += r.metrics.runtime_ns;
    totals.energy_pj += r.metrics.total_energy_pj();
    accesses += r.metrics.accesses;
    if (r.placement_cost != r.metrics.shifts) ++failed;
  }
  report.Gate("single-port cells: placement_cost == Simulate shifts",
              results.size(), failed);
  ReportCommon(report, settings, setup_s, phase, accesses, totals,
               results.size(), failed);
  if (!settings.trace) return;

  // ---- per-layer ledger ----------------------------------------------------
  std::uint64_t suite_accesses = 0;
  std::vector<const rtmp::trace::AccessSequence*> seqs;
  for (const auto& benchmark : suite) {
    for (const auto& seq : benchmark.sequences) {
      seqs.push_back(&seq);
      suite_accesses += seq.size();
    }
  }
  report.Layer("workloads.generate_macc_s",
               static_cast<double>(generated) /
                   tracer.Total("workloads.generate") / 1e6);

  PlaceProbe heuristic;
  PlaceProbe dma_sr;
  PlaceProbe ga;
  PlaceProbe rw;
  std::vector<PlacedSequence> placed;
  for (const auto& spec : rtmp::core::PaperStrategies()) {
    const std::string name = rtmp::core::ToString(spec);
    PlaceProbe probe;
    auto result = ProbePlace(tracer, seqs, kProbeDbcs, name, kSearchEffort,
                             options.seed, probe);
    if (spec.inter == rtmp::core::InterPolicy::kGa) {
      ga = probe;
    } else if (spec.inter == rtmp::core::InterPolicy::kRandomWalk) {
      rw = probe;
    } else {
      heuristic.seconds += probe.seconds;
      heuristic.calls += probe.calls;
      if (name == "dma-sr") {
        dma_sr = probe;
        placed = std::move(result);
      }
    }
  }
  const auto ms_per_call = [](const PlaceProbe& p) {
    return p.calls == 0 ? 0.0 : p.seconds * 1e3 / static_cast<double>(p.calls);
  };
  report.Layer("core.place_ms.heuristic", ms_per_call(heuristic));
  report.Layer("core.place_ms.dma-sr", ms_per_call(dma_sr));
  report.Layer("core.place_ms.ga", ms_per_call(ga));
  report.Layer("core.place_ms.rw", ms_per_call(rw));
  report.Layer("core.ga_evals_per_s",
               static_cast<double>(ga.evaluations) / ga.seconds);
  report.Layer("core.rw_evals_per_s",
               static_cast<double>(rw.evaluations) / rw.seconds);
  report.Layer("core.shift_cost_macc_s",
               ProbeShiftCostMaccS(tracer, placed, 20'000'000));
  report.Layer("sim.simulate_macc_s",
               ProbeSimulateMaccS(tracer, placed, 5'000'000));
  const RtmProbe rtm_probe = ProbeExecuteBatch(tracer, placed, {});
  report.Layer("rtm.execute_batch_macc_s", rtm_probe.macc_s);
  report.Layer("rtm.shifts_per_access",
               static_cast<double>(totals.shifts) / static_cast<double>(accesses));
  report.Layer("rtm.exposed_shift_share", ExposedShare(rtm_probe.stats));

  const std::vector<double>& cell_s = cells.cell_seconds();
  double busy_s = 0.0;
  for (const double s : cell_s) busy_s += s;
  report.Layer("sim.cell_p50_ms", Percentile(cell_s, 0.50).value_or(0.0) * 1e3);
  report.Layer("sim.cell_p95_ms", Percentile(cell_s, 0.95).value_or(0.0) * 1e3);
  report.Layer("sim.parallel_efficiency",
               busy_s / (static_cast<double>(settings.threads) *
                         tracer.Total("sim.run_matrix")));
  report.PercentileInfo("sim.cell_p50_ms (traced pass)", cell_s, 0.50, 1e3, "ms");
  report.PercentileInfo("sim.cell_p95_ms (traced pass)", cell_s, 0.95, 1e3, "ms");
  report.Info("probe sequences (8 DBCs)", static_cast<double>(seqs.size()),
              "count");
  report.Info("probe accesses", static_cast<double>(suite_accesses), "count");
}

}  // namespace perfbench
