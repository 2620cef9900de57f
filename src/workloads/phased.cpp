#include "workloads/phased.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace rtmp::workloads {

namespace {

class PhasedWorkload final : public Workload {
 public:
  explicit PhasedWorkload(std::vector<std::string> phases)
      : phases_(std::move(phases)) {
    if (phases_.empty()) {
      throw std::invalid_argument("phased(): at least one phase required");
    }
    info_.name = CanonicalPhasedName(phases_);
    info_.summary = "phase-spliced concatenation of " +
                    std::to_string(phases_.size()) +
                    " workloads over one positional variable space";
    info_.family = "combinator";
  }

  [[nodiscard]] const WorkloadInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] offsetstone::Benchmark Generate(
      const WorkloadRequest& request) const override {
    ValidateRequest(request);
    std::vector<offsetstone::Benchmark> parts;
    parts.reserve(phases_.size());
    for (const std::string& phase : phases_) {
      const auto workload = ResolveWorkload(phase);
      if (!workload) {
        throw std::invalid_argument(
            "phased(): '" + phase +
            "' is neither a registered workload, a trace file nor a "
            "phased(...) spec");
      }
      parts.push_back(workload->Generate(request));
      if (parts.back().sequences.empty()) {
        throw std::invalid_argument("phased(): phase '" + phase +
                                    "' produced no sequences");
      }
    }

    std::size_t num_sequences = 0;
    for (const offsetstone::Benchmark& part : parts) {
      num_sequences = std::max(num_sequences, part.sequences.size());
    }

    offsetstone::Benchmark result;
    result.name = info_.name;
    result.sequences.reserve(num_sequences);
    for (std::size_t i = 0; i < num_sequences; ++i) {
      trace::AccessSequence spliced;
      // Positional variable union: id v of every phase is the shared
      // variable "x<v>" (see header comment). Register the full union
      // up front so ids stay dense and phase-order independent.
      std::size_t num_variables = 0;
      for (const offsetstone::Benchmark& part : parts) {
        num_variables = std::max(
            num_variables,
            part.sequences[i % part.sequences.size()].num_variables());
      }
      for (std::size_t v = 0; v < num_variables; ++v) {
        (void)spliced.AddVariable(util::Concat({"x", std::to_string(v)}));
      }
      for (const offsetstone::Benchmark& part : parts) {
        const trace::AccessSequence& phase_seq =
            part.sequences[i % part.sequences.size()];
        for (const trace::Access& access : phase_seq.accesses()) {
          spliced.Append(access.variable, access.type);
        }
      }
      result.sequences.push_back(std::move(spliced));
    }
    return result;
  }

 private:
  std::vector<std::string> phases_;
  WorkloadInfo info_;
};

}  // namespace

std::shared_ptr<const Workload> MakePhasedWorkload(
    std::vector<std::string> phases) {
  return std::make_shared<const PhasedWorkload>(std::move(phases));
}

std::optional<std::vector<std::string>> ParsePhasedSpec(
    std::string_view spec) {
  const std::string_view trimmed = util::Trim(spec);
  constexpr std::string_view kPrefix = "phased(";
  if (trimmed.size() < kPrefix.size()) return std::nullopt;
  const std::string lowered = util::ToLower(trimmed.substr(0, kPrefix.size()));
  if (lowered != kPrefix) return std::nullopt;
  if (trimmed.back() != ')') {
    throw std::invalid_argument("phased(): missing closing ')' in '" +
                                std::string(spec) + "'");
  }

  const std::string_view body =
      trimmed.substr(kPrefix.size(), trimmed.size() - kPrefix.size() - 1);
  std::vector<std::string> phases;
  std::size_t depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= body.size(); ++i) {
    if (i < body.size() && body[i] == '(') {
      // The outer phased( is level 1, so the body may open one fewer.
      if (++depth >= kMaxPhasedDepth) {
        throw std::invalid_argument("phased(): nesting too deep");
      }
      continue;
    }
    if (i < body.size() && body[i] == ')') {
      if (depth == 0) {
        throw std::invalid_argument("phased(): unbalanced ')' in '" +
                                    std::string(spec) + "'");
      }
      --depth;
      continue;
    }
    if (i < body.size() && (body[i] != ',' || depth > 0)) continue;
    const std::string_view phase = util::Trim(body.substr(start, i - start));
    if (phase.empty()) {
      throw std::invalid_argument("phased(): empty phase in '" +
                                  std::string(spec) + "'");
    }
    phases.push_back(std::string(phase));
    start = i + 1;
  }
  if (depth != 0) {
    throw std::invalid_argument("phased(): unbalanced '(' in '" +
                                std::string(spec) + "'");
  }
  return phases;
}

std::string CanonicalPhasedName(const std::vector<std::string>& phases) {
  std::string name = "phased(";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) name += ",";
    name += util::ToLower(phases[i]);
  }
  name += ")";
  return name;
}

}  // namespace rtmp::workloads
