// Observability wiring: one struct of non-owning pointers threaded
// through every layer's config (OnlineConfig::obs, ServeConfig::obs,
// ExperimentOptions::obs). Default-constructed = disabled.
//
// The engines keep no observability state of their own. Trace events
// are recorded where they happen, behind a null check on `trace`, with
// literal names (obs/trace_recorder.h). Counters and the window-latency
// histogram are published into `metrics` once per run, from the
// finished result: OnlineEngine::Finish (online/*), CacheEngine::Finish
// (cache/*) and PlacementService::Run (serve/*).
//
// pid/tid place events on trace rows: the sim layer assigns pid =
// matrix-cell index (with a private recorder per cell, merged in grid
// order for thread invariance), the serve layer assigns tid = shard,
// the online cell runner tid = sequence index.
#pragma once

#include <cstdint>

namespace rtmp::obs {

class MetricsRegistry;
class TraceRecorder;

struct ObsConfig {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;

  [[nodiscard]] bool enabled() const noexcept {
    return metrics != nullptr || trace != nullptr;
  }
};

}  // namespace rtmp::obs
