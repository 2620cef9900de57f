// trace-replay: a seeded multi-sequence trace, written once in setup as
// text and as binary (RTMB), streamed from disk through
// sim::RunStreamedTraceCell with afd-ofu and dma-sr. Ingestion and the
// single-pass static path (ShiftCost, sim::Simulate) dominate; there is
// no search and no online engine. Every sequence spans more than 1,024
// variables, so peak_rss_mb shows whether streaming stays bounded by one
// sequence.
#include <filesystem>
#include <fstream>

#include "sim/experiment.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_stream.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sim = rtmp::sim;
namespace trace = rtmp::trace;

constexpr std::size_t kSequences = 6;
constexpr std::size_t kSequenceAccesses = 150'000;
constexpr unsigned kDbcs = 16;
constexpr const char* kStrategies[] = {"afd-ofu", "dma-sr"};

/// `seq` with its variables re-registered in first-access order — the
/// order the text reader assigns ids in — so the text and binary files
/// describe the same id space and their replays can agree exactly.
trace::AccessSequence FirstAccessOrder(const trace::AccessSequence& seq) {
  trace::AccessSequence ordered;
  for (const trace::Access& access : seq.accesses()) {
    ordered.Append(ordered.AddVariable(seq.name_of(access.variable)),
                   access.type);
  }
  return ordered;
}

trace::TraceFile MakeTrace(std::uint64_t seed) {
  rtmp::util::Rng rng(seed);
  trace::TraceFile file;
  file.benchmark = "replay";
  for (std::size_t s = 0; s < kSequences; ++s) {
    trace::MarkovParams params;
    params.num_vars = 1100 + 100 * s;
    params.length = kSequenceAccesses;
    params.locality_window = 8;
    file.sequence_names.push_back("seq" + std::to_string(s));
    file.sequences.push_back(
        FirstAccessOrder(trace::GenerateMarkov(params, rng)));
  }
  return file;
}

bool SameCell(const sim::RunResult& a, const sim::RunResult& b) {
  return a.metrics.shifts == b.metrics.shifts &&
         a.metrics.accesses == b.metrics.accesses &&
         a.metrics.runtime_ns == b.metrics.runtime_ns &&
         a.metrics.leakage_pj == b.metrics.leakage_pj &&
         a.metrics.read_write_pj == b.metrics.read_write_pj &&
         a.metrics.shift_pj == b.metrics.shift_pj &&
         a.placement_cost == b.placement_cost &&
         a.search_evaluations == b.search_evaluations;
}

double StreamMaccS(Tracer& tracer, const std::string& path, bool binary,
                   const char* span_name) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t accesses = 0;
  const trace::SequenceSink sink = [&accesses](const std::string&,
                                               trace::AccessSequence seq) {
    accesses += seq.size();
  };
  {
    const Tracer::Scope span = tracer.Open(span_name);
    if (binary) {
      (void)trace::StreamBinaryTrace(in, sink);
    } else {
      (void)trace::StreamTextTrace(in, sink);
    }
  }
  return static_cast<double>(accesses) / tracer.Total(span_name) / 1e6;
}

}  // namespace

void RunTraceReplay(const RunSettings& settings, Tracer& tracer,
                    Report& report) {
  sim::ExperimentOptions options;
  options.seed = DeriveSeed(settings.seed, "search");
  options.num_threads = 1;
  options.obs = {};
  const std::string text_path = settings.work_dir + "/replay-" +
                                std::to_string(settings.seed) + ".trace";
  const std::string binary_path = settings.work_dir + "/replay-" +
                                  std::to_string(settings.seed) + ".rtmb";
  report.Setting("replay cells", "{text, binary} x {afd-ofu, dma-sr} at 16 DBCs");
  // The trace files are run inputs, not results: remove them on the way out.
  struct RemoveOnExit {
    std::vector<std::string> paths;
    ~RemoveOnExit() {
      for (const std::string& path : paths) {
        std::error_code ignored;
        std::filesystem::remove(path, ignored);
      }
    }
  } const cleanup{{text_path, binary_path}};

  // Setup keeps only the files: the timed phase must hold no more than
  // the sequence it is streaming.
  std::uint64_t generated = 0;
  std::uint64_t trace_accesses = 0;
  std::size_t min_vars = 0;
  const double setup_s = MedianSetupSeconds([&] {
    trace::TraceFile file;
    {
      const Tracer::Scope span = tracer.Open("workloads.generate");
      file = MakeTrace(DeriveSeed(settings.seed, "trace"));
    }
    trace_accesses = 0;
    min_vars = file.sequences.front().num_variables();
    for (const auto& seq : file.sequences) {
      trace_accesses += seq.size();
      min_vars = std::min(min_vars, seq.num_variables());
    }
    generated += trace_accesses;
    const Tracer::Scope span = tracer.Open("trace.write");
    std::ofstream text(text_path);
    trace::WriteTrace(text, file);
    std::ofstream binary(binary_path, std::ios::binary);
    trace::WriteBinaryTrace(binary, file);
    if (!text.flush() || !binary.flush()) {
      throw std::runtime_error("trace-replay: cannot write the trace files");
    }
  });
  report.Info("trace sequences", static_cast<double>(kSequences), "count");
  report.Info("fewest variables in a sequence", static_cast<double>(min_vars),
              "count");

  // results[format][strategy]
  std::vector<std::vector<sim::RunResult>> results(2);
  const TimedPhase phase = TimePasses(settings, tracer, [&](Tracer& t) {
    Fingerprint print;
    for (std::size_t f = 0; f < 2; ++f) {
      results[f].clear();
      for (const char* strategy : kStrategies) {
        const Tracer::Scope span = t.Open("sim.streamed_cell");
        results[f].push_back(sim::RunStreamedTraceCell(
            f == 0 ? text_path : binary_path, kDbcs, strategy, options));
        const sim::RunResult& r = results[f].back();
        print.Add(r.metrics.shifts);
        print.Add(r.metrics.runtime_ns);
        print.Add(r.metrics.total_energy_pj());
        print.Add(r.placement_cost);
      }
    }
    return print;
  });

  // Oracles: the text and binary replays agree exactly, and each equals
  // the materialized cell over the same file.
  std::size_t failed = 0;
  const std::vector<rtmp::offsetstone::Benchmark> loaded =
      sim::LoadWorkloads(std::vector<std::string>{text_path}, options);
  for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
    const sim::RunResult materialized =
        sim::RunCell(loaded.front(), kDbcs, kStrategies[s], options);
    for (std::size_t f = 0; f < 2; ++f) {
      if (!SameCell(results[f][s], materialized) ||
          !SameCell(results[f][s], results[1 - f][s])) {
        ++failed;
      }
    }
  }
  report.Gate("text == binary == materialized replay", 4, failed);

  SimTotals totals;
  std::uint64_t served = 0;
  for (const auto& format : results) {
    for (const sim::RunResult& r : format) {
      totals.shifts += r.metrics.shifts;
      totals.runtime_ns += r.metrics.runtime_ns;
      totals.energy_pj += r.metrics.total_energy_pj();
      served += r.metrics.accesses;
    }
  }
  const bool served_ok = served == 4 * trace_accesses;
  report.Gate("every replay served every trace access", 1, served_ok ? 0 : 1);
  if (!served_ok) failed = 4;
  ReportCommon(report, settings, setup_s, phase, served, totals, 4, failed);
  if (!settings.trace) return;

  // ---- per-layer ledger ----------------------------------------------------
  report.Layer("workloads.generate_macc_s",
               static_cast<double>(generated) /
                   tracer.Total("workloads.generate") / 1e6);
  report.Layer("trace.text_read_macc_s",
               StreamMaccS(tracer, text_path, false, "trace.text_read"));
  report.Layer("trace.binary_read_macc_s",
               StreamMaccS(tracer, binary_path, true, "trace.binary_read"));

  const trace::TraceFile file = trace::LoadTraceFile(binary_path);
  std::vector<const trace::AccessSequence*> seqs;
  for (const auto& seq : file.sequences) seqs.push_back(&seq);
  PlaceProbe afd;
  PlaceProbe dma_sr;
  (void)ProbePlace(tracer, seqs, kDbcs, "afd-ofu", 1.0, options.seed, afd);
  const std::vector<PlacedSequence> placed =
      ProbePlace(tracer, seqs, kDbcs, "dma-sr", 1.0, options.seed, dma_sr);
  report.Layer("core.place_ms.heuristic",
               (afd.seconds + dma_sr.seconds) * 1e3 /
                   static_cast<double>(afd.calls + dma_sr.calls));
  report.Layer("core.place_ms.dma-sr",
               dma_sr.seconds * 1e3 / static_cast<double>(dma_sr.calls));
  report.Layer("core.shift_cost_macc_s",
               ProbeShiftCostMaccS(tracer, placed, 20'000'000));
  report.Layer("sim.simulate_macc_s",
               ProbeSimulateMaccS(tracer, placed, 5'000'000));
  const RtmProbe rtm_probe = ProbeExecuteBatch(tracer, placed, {});
  report.Layer("rtm.execute_batch_macc_s", rtm_probe.macc_s);
  report.Layer("rtm.shifts_per_access",
               static_cast<double>(totals.shifts) / static_cast<double>(served));
  report.Layer("rtm.exposed_shift_share", ExposedShare(rtm_probe.stats));
  report.Info("dma-sr probe: accesses per sequence",
              static_cast<double>(kSequenceAccesses), "count");
}

}  // namespace perfbench
