#include "harness.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <stdexcept>

#include "ledger.h"
#include "util/rng.h"

namespace perfbench {

double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::string_view label) {
  std::uint64_t state = seed ^ rtmp::util::HashString(label);
  return rtmp::util::SplitMix64(state);
}

bool EnoughSamplesBeyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank > 0 && rank <= n && n - rank >= 10;
}

std::optional<double> Percentile(std::vector<double> samples, double q) {
  if (!EnoughSamplesBeyond(samples.size(), q)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("perfbench: VmHWM not found in /proc/self/status");
}

bool ResetPeakRss() {
  // Hand memory freed by setup back to the kernel first, so the reset
  // starts from what the timed phase really holds.
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::string(name);
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->stack_.push_back(index_);
  tracer_->spans_[index_].start_s =
      SecondsBetween(tracer_->epoch_, Clock::now());
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = SecondsBetween(tracer_->epoch_, Clock::now());
  tracer_->stack_.pop_back();
}

double Tracer::Total(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_s - span.start_s;
  }
  return total;
}

void Tracer::PrintSummary() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_time[span.parent] += span.end_s - span.start_s;
  }
  struct Row {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<std::string> order;
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, inserted] = rows.try_emplace(span.name);
    if (inserted) order.push_back(span.name);
    ++it->second.count;
    it->second.total_s += span.end_s - span.start_s;
    it->second.self_s += span.end_s - span.start_s - child_time[i];
  }
  std::printf("\n-- host-time spans (traced run) --\n");
  std::printf("%-28s %8s %12s %12s\n", "span", "count", "total [ms]",
              "self [ms]");
  for (const std::string& name : order) {
    const Row& row = rows.at(name);
    std::printf("%-28s %8zu %12.3f %12.3f\n", name.c_str(), row.count,
                row.total_s * 1e3, row.self_s * 1e3);
  }
}

void Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  span.name.c_str(), span.start_s * 1e6,
                  (span.end_s - span.start_s) * 1e6, i, span.parent,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

// ---- passes -----------------------------------------------------------------

void Fingerprint::Add(double value) {
  words_.push_back(std::bit_cast<std::uint64_t>(value));
}

TimedPhase TimePasses(const RunSettings& settings, Tracer& tracer,
                      const std::function<Fingerprint(Tracer&)>& pass) {
  constexpr std::size_t kMinPasses = 2;
  TimedPhase phase;
  Tracer untraced(false);
  Fingerprint first;
  const double budget_s =
      settings.trace ? settings.seconds / 2.0 : settings.seconds;
  phase.peak_reset = ResetPeakRss();
  const Clock::time_point start = Clock::now();
  while (phase.seconds.size() < kMinPasses ||
         SecondsBetween(start, Clock::now()) < budget_s) {
    const Clock::time_point begin = Clock::now();
    Fingerprint print = pass(untraced);
    phase.seconds.push_back(SecondsBetween(begin, Clock::now()));
    // Read after a fixed number of passes: later passes repeat the same
    // work, and a count that follows the clock would let allocator
    // fragmentation drift into the figure.
    if (phase.seconds.size() == kMinPasses) phase.peak_rss_mib = PeakRssMiB();
    if (phase.seconds.size() == 1) {
      first = std::move(print);
    } else if (!(print == first)) {
      phase.identical = false;
    }
  }
  phase.wall_s = *std::min_element(phase.seconds.begin(), phase.seconds.end());
  if (settings.trace) {
    const Clock::time_point begin = Clock::now();
    Fingerprint print;
    {
      const Tracer::Scope span = tracer.Open("pass");
      print = pass(tracer);
    }
    phase.traced_s = SecondsBetween(begin, Clock::now());
    if (!(print == first)) phase.identical = false;
  }
  return phase;
}

double MedianSetupSeconds(const std::function<void()>& setup) {
  constexpr std::size_t kMinRepeats = 3;
  constexpr std::size_t kMaxRepeats = 21;
  constexpr double kBudgetS = 1.0;
  std::vector<double> seconds;
  double spent = 0.0;
  while (seconds.size() < kMinRepeats ||
         (seconds.size() < kMaxRepeats && spent < kBudgetS)) {
    const Clock::time_point begin = Clock::now();
    setup();
    seconds.push_back(SecondsBetween(begin, Clock::now()));
    spent += seconds.back();
  }
  return Median(seconds);
}

// ---- Report -----------------------------------------------------------------

void Report::Setting(std::string name, std::string value) {
  settings_.emplace_back(std::move(name), std::move(value));
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %16.6g %s", name.c_str(), value,
                unit.c_str());
  info_lines_.emplace_back(line);
}

void Report::Layer(const std::string& name, double value) {
  if (FindLedgerRow(name) == nullptr) {
    throw std::logic_error("perfbench: '" + name + "' is not a ledger metric");
  }
  layers_[name] = value;
}

void Report::PercentileInfo(const std::string& name,
                            const std::vector<double>& samples, double q,
                            double scale, const std::string& unit) {
  const std::optional<double> value = Percentile(samples, q);
  char line[256];
  if (value) {
    std::snprintf(line, sizeof line, "%-28s %16.6g %s  (n = %zu)",
                  name.c_str(), *value * scale, unit.c_str(), samples.size());
  } else {
    std::snprintf(line, sizeof line,
                  "%-28s %16s %s  (n = %zu: fewer than 10 samples beyond it)",
                  name.c_str(), "refused", unit.c_str(), samples.size());
  }
  info_lines_.emplace_back(line);
}

void Report::Gate(const std::string& name, std::size_t attempted,
                  std::size_t failed) {
  char line[256];
  std::snprintf(line, sizeof line, "%-4s %s (%zu/%zu pass)",
                failed == 0 ? "ok" : "FAIL", name.c_str(), attempted - failed,
                attempted);
  gate_lines_.emplace_back(line);
  if (failed != 0) correct_ = false;
}

void Report::Operations(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::optional<double> Report::LayerValue(std::string_view name) const {
  const auto it = layers_.find(name);
  if (it == layers_.end()) return std::nullopt;
  return it->second;
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

void Report::Emit(bool trace) const {
  std::printf("\n-- settings --\n");
  for (const auto& [name, value] : settings_) {
    std::printf("%-28s %s\n", name.c_str(), value.c_str());
  }
  std::printf("\n-- end-to-end metrics (tracing off) --\n");
  for (const Metric& metric : end_to_end_) {
    std::printf("%-28s %16.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& line : info_lines_) std::printf("%s\n", line.c_str());
  if (trace) PrintLedger(*this);
  std::printf("\n-- correctness gates --\n");
  for (const std::string& line : gate_lines_) std::printf("%s\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  };
  if (trace) {
    for (const LedgerRow& row : kLedger) {
      add(row.name, LayerValue(row.name).value_or(0.0), row.unit);
    }
  } else {
    for (const Metric& metric : end_to_end_) {
      add(metric.name, metric.value, metric.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
