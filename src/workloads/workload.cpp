#include "workloads/workload.h"

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "trace/trace_stream.h"
#include "workloads/phased.h"

namespace rtmp::workloads {

void ValidateRequest(const WorkloadRequest& request) {
  if (!std::isfinite(request.scale) || request.scale <= 0.0 ||
      request.scale > 16.0) {
    throw std::invalid_argument(
        "WorkloadRequest: scale must be finite and in (0, 16]");
  }
}

namespace {

/// External trace file as a workload: re-read on every Generate() so a
/// changed file is picked up; seed/scale are ignored (the file is its
/// own ground truth).
class TraceFileWorkload final : public Workload {
 public:
  explicit TraceFileWorkload(std::string path) : path_(std::move(path)) {
    info_.name = path_;
    info_.summary = "external trace file";
    info_.family = "trace";
  }

  [[nodiscard]] const WorkloadInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] offsetstone::Benchmark Generate(
      const WorkloadRequest&) const override {
    trace::TraceFile file = trace::LoadTraceFile(path_);
    offsetstone::Benchmark benchmark;
    benchmark.name = !file.benchmark.empty()
                         ? file.benchmark
                         : std::filesystem::path(path_).stem().string();
    benchmark.sequences = std::move(file.sequences);
    return benchmark;
  }

 private:
  std::string path_;
  WorkloadInfo info_;
};

}  // namespace

std::shared_ptr<const Workload> MakeTraceFileWorkload(std::string path) {
  return std::make_shared<const TraceFileWorkload>(std::move(path));
}

std::shared_ptr<const Workload> ResolveWorkload(std::string_view spec) {
  if (auto workload = WorkloadRegistry::Global().Find(spec)) return workload;
  // phased(a,b,...) splice specs: parentheses are invalid registry
  // characters, so the combinator can never shadow a registered name.
  if (auto phases = ParsePhasedSpec(spec)) {
    return MakePhasedWorkload(std::move(*phases));
  }
  std::error_code ec;
  if (std::filesystem::is_regular_file(std::filesystem::path(spec), ec)) {
    return MakeTraceFileWorkload(std::string(spec));
  }
  return nullptr;
}

}  // namespace rtmp::workloads
