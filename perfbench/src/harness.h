// Shared machinery of the benchmark: host clocks, the host-time span
// recorder, percentile rules, the seeded input derivation, the timed pass
// loop with its bit-identity check, and the report that ends in the
// one-line JSON result.
//
// Host time is what the simulator takes to run; simulated (modelled) time
// is what the racetrack device would take. Every name below that carries
// a time says which one it is.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double SecondsBetween(Clock::time_point begin,
                                    Clock::time_point end);

/// What the command line fixes for one run.
struct RunSettings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (trace files, span dumps).
  std::string work_dir;
  /// Worker threads for the paper matrix, pinned here (never read from
  /// RTMPLACE_THREADS): min(2, hardware threads).
  unsigned threads = 1;
};

/// Input seed for one purpose: every input of a run is derived from the
/// single --seed through a distinct label, so two purposes never share a
/// stream and equal seeds give equal inputs.
[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t seed,
                                       std::string_view label);

/// Whether at least 10 of `n` samples lie beyond the nearest-rank
/// q-quantile (a p99 needs >= 1000 samples, a p50 >= 20): the rule every
/// reported percentile obeys.
[[nodiscard]] bool EnoughSamplesBeyond(std::size_t n, double q);

/// Nearest-rank q-quantile of `samples`, or nullopt when fewer than 10
/// samples lie beyond it.
[[nodiscard]] std::optional<double> Percentile(std::vector<double> samples,
                                               double q);

[[nodiscard]] double Median(std::vector<double> samples);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double PeakRssMiB();

/// Returns freed heap memory to the kernel and resets the peak resident
/// set to the current one (Linux clear_refs); false where the kernel does
/// not allow the reset.
bool ResetPeakRss();

/// Host-time spans: name, start, end and parent, kept in memory and
/// written out once when the run ends. Disabled recorders hand out inert
/// scopes, so untraced passes pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root span
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] Scope Open(std::string_view name) {
    return Scope(enabled_ ? this : nullptr, name);
  }
  /// Summed duration (s) of the spans named `name`.
  [[nodiscard]] double Total(std::string_view name) const;

  /// Per-name count, total and self time (total minus the time covered
  /// by child spans), printed in first-seen order.
  void PrintSummary() const;

  /// Chrome trace-event JSON ("X" events, microseconds, parent in args).
  void WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Bit pattern of the simulated outputs of one pass. Two passes over the
/// same inputs must produce identical fingerprints.
class Fingerprint {
 public:
  void Add(std::uint64_t value) { words_.push_back(value); }
  void Add(double value);
  [[nodiscard]] bool operator==(const Fingerprint&) const = default;

 private:
  std::vector<std::uint64_t> words_;
};

/// Host time of a workload's timed phase.
struct TimedPhase {
  /// Host seconds of each untraced pass.
  std::vector<double> seconds;
  /// Fastest of `seconds`: the end-to-end wall_s. On a host shared with
  /// other jobs the fastest pass is the one least disturbed by them (in one
  /// noisy stretch on a shared 4-vCPU VM, tiered-serve's median pass moved
  /// by 26% between runs and its fastest pass by 3%).
  double wall_s = 0.0;
  /// Every pass, the traced one included, reproduced the first pass's
  /// fingerprint bit for bit.
  bool identical = true;
  /// Host seconds of the traced pass (traced runs only).
  double traced_s = 0.0;
  /// Peak resident set over the first two passes (MiB), or over the whole
  /// process up to then when the peak could not be reset after setup.
  double peak_rss_mib = 0.0;
  bool peak_reset = false;
};

/// Runs `pass` untraced at least twice and then until the time budget is
/// spent (all of --seconds, or half of it in a traced run, which then adds
/// one pass under the enabled tracer). Each pass returns the fingerprint
/// of its simulated outputs, which must repeat exactly.
TimedPhase TimePasses(const RunSettings& settings, Tracer& tracer,
                      const std::function<Fingerprint(Tracer&)>& pass);

/// Median host time of `setup`, run at least 3 and at most 21 times and
/// until about one second is spent: setup_s.
double MedianSetupSeconds(const std::function<void()>& setup);

/// Collects the run's settings, metrics and correctness gates; prints the
/// human-readable report and ends with the one-line JSON result.
class Report {
 public:
  void Setting(std::string name, std::string value);
  /// An end-to-end metric (tracing off); emitted in the JSON of --trace 0.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A metric printed in the report only (workload-specific percentiles
  /// and their sample counts).
  void Info(const std::string& name, double value, const std::string& unit);
  /// A per-layer ledger metric; emitted in the JSON of --trace 1.
  void Layer(const std::string& name, double value);
  /// A percentile printed beside its sample count, or a refusal line
  /// when fewer than 10 samples lie beyond it.
  void PercentileInfo(const std::string& name, const std::vector<double>& samples,
                      double q, double scale, const std::string& unit);
  /// One correctness gate over `attempted` operations, `failed` of which
  /// broke it.
  void Gate(const std::string& name, std::size_t attempted, std::size_t failed);
  /// Operations attempted / failed for success_ratio and the JSON.
  void Operations(std::size_t attempted, std::size_t failed);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::optional<double> LayerValue(std::string_view name) const;

  /// Prints settings, metrics, gates and — last line — the JSON object.
  void Emit(bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::pair<std::string, std::string>> settings_;
  std::vector<Metric> end_to_end_;
  std::map<std::string, double, std::less<>> layers_;
  std::vector<std::string> info_lines_;
  std::vector<std::string> gate_lines_;
  bool correct_ = true;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
