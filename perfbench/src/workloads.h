// The four seeded workloads. Each drives one layer stack through its public
// entry points as a closed loop with one client: the next call is issued
// only after the previous one returned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/placement.h"
#include "harness.h"
#include "rtm/config.h"
#include "rtm/controller.h"
#include "trace/access_sequence.h"

namespace perfbench {

void RunPaperMatrix(const RunSettings& settings, Tracer& tracer,
                    Report& report);
void RunAdaptiveStream(const RunSettings& settings, Tracer& tracer,
                       Report& report);
void RunTieredServe(const RunSettings& settings, Tracer& tracer,
                    Report& report);
void RunTraceReplay(const RunSettings& settings, Tracer& tracer,
                    Report& report);

// ---- shared by the workloads ------------------------------------------------

/// Modelled totals of one pass (simulated time and energy, not host time).
struct SimTotals {
  std::uint64_t shifts = 0;
  double runtime_ns = 0.0;
  double energy_pj = 0.0;
};

/// Records the end-to-end metrics every workload reports, the
/// bit-identity gate over the timed passes, the operations behind
/// success_ratio and — traced runs — the tracing overhead. `failed`
/// counts operations the workload's own gates already reported.
void ReportCommon(Report& report, const RunSettings& settings, double setup_s,
                  const TimedPhase& phase, std::uint64_t accesses_per_pass,
                  const SimTotals& totals, std::size_t attempted,
                  std::size_t failed);

/// A sequence with the placement and device a layer probe runs it under.
struct PlacedSequence {
  const rtmp::trace::AccessSequence* sequence = nullptr;
  rtmp::core::Placement placement{0, 1};
  rtmp::rtm::RtmConfig device;
};

/// Host time and search effort of direct strategy calls.
struct PlaceProbe {
  double seconds = 0.0;
  std::size_t calls = 0;
  std::size_t evaluations = 0;
};

/// Places every sequence with `strategy` on a sim::CellConfig(dbcs, ...)
/// device, one registry Run() per sequence inside a "core.place/<name>"
/// span, seeded and effort-scaled as the experiment engine does.
std::vector<PlacedSequence> ProbePlace(
    Tracer& tracer, const std::vector<const rtmp::trace::AccessSequence*>& seqs,
    unsigned dbcs, const std::string& strategy, double effort,
    std::uint64_t seed, PlaceProbe& probe);

/// Direct-call layer rates over placed sequences, each repeated until it
/// has priced about `target_accesses` accesses; Macc/s of host time.
double ProbeShiftCostMaccS(Tracer& tracer,
                           const std::vector<PlacedSequence>& placed,
                           std::uint64_t target_accesses);
double ProbeSimulateMaccS(Tracer& tracer,
                          const std::vector<PlacedSequence>& placed,
                          std::uint64_t target_accesses);

/// RtmController::ExecuteBatch over the placed sequences in 256-request
/// batches (one fresh controller per sequence).
struct RtmProbe {
  double macc_s = 0.0;
  rtmp::rtm::ControllerStats stats;
};
RtmProbe ProbeExecuteBatch(Tracer& tracer,
                           const std::vector<PlacedSequence>& placed,
                           const rtmp::rtm::ControllerConfig& controller);

[[nodiscard]] std::uint64_t TotalAccesses(
    const std::vector<const rtmp::trace::AccessSequence*>& seqs);

/// Exposed shift stall over shift-busy time (0 when nothing shifted).
[[nodiscard]] double ExposedShare(const rtmp::rtm::ControllerStats& stats);

}  // namespace perfbench
