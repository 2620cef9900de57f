// Workload registry: the open, name-keyed dispatch layer for benchmark
// workloads — the input side of the evaluation, mirroring the strategy
// registry on the solution side (core/strategy_registry.h).
//
// A workload is anything that can turn a WorkloadRequest into an
// offsetstone::Benchmark (a named set of access sequences). Three source
// families register here:
//
//  * the OffsetStone-lite suite profiles ("gsm", "dct", ...), so the
//    paper's benchmarks are reachable through the same interface;
//  * the trace::Generate* families ("gen-zipf", "gen-markov", ...),
//    exposing each raw generator as a standalone workload;
//  * eight application-shaped synthetic families (workloads/synthetic.h):
//    stencil sweeps, tiled GEMM, hash-join probes, BFS frontiers, zipfian
//    key-value churn, FFT butterflies, pointer chases, streaming scans.
//
// External trace files (text or binary, see trace/trace_stream.h) enter
// through ResolveWorkload(), which falls back to treating an unregistered
// name as a file path — so `placement_explorer` and sim::RunMatrix accept
// registry names and trace paths interchangeably.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "offsetstone/suite.h"
#include "util/registry.h"

namespace rtmp::workloads {

/// Everything a workload needs to materialize its benchmark. Generation
/// must be deterministic in (seed, scale): equal requests yield
/// bit-identical benchmarks on every platform and thread count.
struct WorkloadRequest {
  /// Seed the workload derives its RNG streams from (combined with the
  /// workload name, so two workloads never share a stream).
  std::uint64_t seed = 0;
  /// Size multiplier relative to the workload's documented default
  /// (sequence counts / lengths scale roughly linearly). Values in
  /// (0, 16] are supported; out-of-range throws std::invalid_argument.
  double scale = 1.0;
};

/// Self-description of a registered workload.
struct WorkloadInfo {
  /// Registry key: lowercase, unique ("gsm", "gen-zipf", "stencil", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Source family: "offsetstone", "generator", "synthetic" or "trace".
  std::string family;
};

/// Abstract workload. Implementations must be stateless or internally
/// synchronized: the experiment engine may call Generate() from many
/// threads concurrently on one instance.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const WorkloadInfo& Describe() const noexcept = 0;

  /// Materializes the benchmark. Throws std::invalid_argument on
  /// requests the workload cannot serve (e.g. out-of-range scale) and
  /// std::runtime_error on I/O failures (trace-file workloads).
  [[nodiscard]] virtual offsetstone::Benchmark Generate(
      const WorkloadRequest& request) const = 0;
};

/// Validates request.scale (finite, in (0, 16]); throws
/// std::invalid_argument otherwise. Every built-in workload calls this
/// first so the documented parameter range is enforced uniformly.
void ValidateRequest(const WorkloadRequest& request);

/// Name -> workload registry (util/registry.h), the same template as
/// core::StrategyRegistry so the two sides of the evaluation matrix read
/// the same.
using WorkloadRegistry = util::Registry<Workload>;

/// RAII self-registration into WorkloadRegistry::Global(), for workloads
/// defined outside this library (see util::Registrar).
using WorkloadRegistrar = util::Registrar<Workload>;

/// Registers the built-in workloads into `registry`: every OffsetStone
/// suite profile under its benchmark name, the six trace::Generate*
/// families under "gen-<family>", and the eight synthetic application
/// families of workloads/synthetic.h. Global() calls this once; tests
/// use it to build fresh registries.
void RegisterBuiltinWorkloads(WorkloadRegistry& registry);

/// WorkloadRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(WorkloadRegistry& registry) {
  RegisterBuiltinWorkloads(registry);
}

/// A workload that loads an external trace file on every Generate()
/// call: text format when the content starts like text, binary when the
/// file carries the RTMB magic (see trace/trace_stream.h). The request's
/// seed and scale are ignored — a trace file IS its own ground truth.
[[nodiscard]] std::shared_ptr<const Workload> MakeTraceFileWorkload(
    std::string path);

/// Resolves a workload spec: a registered name wins; "phased(a,b,...)"
/// specs build the splice combinator (workloads/phased.h); anything
/// else is treated as a trace-file path (the file must exist). Returns
/// nullptr when it is none of the three.
[[nodiscard]] std::shared_ptr<const Workload> ResolveWorkload(
    std::string_view spec);

}  // namespace rtmp::workloads
