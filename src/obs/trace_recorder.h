// rtmlint: hot-path — event recording runs inside the window-service
// loops; Complete()/Instant() write into a preallocated arena and must
// stay allocation-free (Reserve() up front, drop-on-full past it).
//
// Simulated-time trace recorder. Events are timestamped from the
// controller's simulated nanoseconds (ControllerStats::makespan_ns),
// never the wall clock, so an emitted trace is bit-identical across
// reruns and RTMPLACE_THREADS values. The JSON output is the Chrome
// trace-event format ({"traceEvents": [...]}, ts/dur in microseconds)
// and opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Event names and arg keys are string literals (TraceName), stored by
// pointer; only runtime string arg values (tenant names) are interned,
// at setup time via Intern(). The per-event record is fixed-width.
// pid/tid are free-form rows: the sim layer uses pid = matrix cell, the
// serve layer tid = shard.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rtmp::util {
class JsonWriter;
}  // namespace rtmp::util

namespace rtmp::obs {

/// An event name or arg key. The consteval constructor admits only
/// constant strings — in practice literals — so the recorder can keep the
/// pointer without copying or interning it.
class TraceName {
 public:
  constexpr TraceName() noexcept = default;
  /// Implicit, so call sites pass the literal itself.
  consteval TraceName(const char* text) noexcept : text_(text) {}

  [[nodiscard]] const char* c_str() const noexcept { return text_; }

 private:
  const char* text_ = "";
};

class TraceRecorder {
 public:
  /// One event argument: the value is either an interned string index
  /// (is_string; see Intern) or a raw unsigned number.
  struct Arg {
    TraceName key;
    bool is_string = false;
    std::uint64_t value = 0;
  };

  /// Most events carry 0-3 args; the fixed inline slot count keeps the
  /// arena record flat.
  static constexpr std::size_t kMaxArgs = 3;
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  /// Grows the event arena to at least `capacity` events. Cold path:
  /// call before recording starts. Events past capacity are dropped
  /// (counted in dropped_events()) rather than reallocating mid-run.
  void Reserve(std::size_t capacity);

  /// Interns a runtime string arg value, returning its stable index.
  /// Setup-time only.
  [[nodiscard]] std::uint32_t Intern(std::string_view text);

  /// Complete span ("ph":"X"): [ts_ns, ts_ns + dur_ns] of simulated time.
  void Complete(TraceName name, std::uint32_t pid, std::uint32_t tid,
                double ts_ns, double dur_ns,
                std::span<const Arg> args = {}) noexcept;

  /// Instant event ("ph":"i", thread scope).
  void Instant(TraceName name, std::uint32_t pid, std::uint32_t tid,
               double ts_ns, std::span<const Arg> args = {}) noexcept;

  /// Row labels, emitted as "M" metadata events. Setup-time only.
  void SetProcessName(std::uint32_t pid, std::string_view name);
  void SetThreadName(std::uint32_t pid, std::uint32_t tid,
                     std::string_view name);

  /// Appends another recorder's events (re-interning its string arg
  /// values) and row labels, preserving their order. The sim layer
  /// merges per-cell recorders in grid order, making the combined trace
  /// independent of worker scheduling.
  void Merge(const TraceRecorder& other);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t dropped_events() const noexcept {
    return dropped_;
  }

  /// Chrome trace-event JSON: {"traceEvents": [...]}. Metadata rows
  /// first, then events in record order; ts/dur are simulated ns
  /// divided by 1000 (the format's unit is microseconds).
  void WriteJson(util::JsonWriter& writer) const;
  [[nodiscard]] std::string ToJson(int indent = 0) const;

 private:
  enum class Phase : std::uint8_t { kComplete, kInstant };

  struct Event {
    TraceName name;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    double ts_ns = 0.0;
    double dur_ns = 0.0;
    Phase phase = Phase::kComplete;
    std::uint8_t num_args = 0;
    std::array<Arg, kMaxArgs> args{};
  };

  void Append(const Event& event, std::span<const Arg> args) noexcept;
  void WriteEvent(util::JsonWriter& writer, const Event& event) const;

  std::vector<Event> events_;  ///< fixed arena; size_ tracks the fill
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> strings_;
  std::map<std::string, std::uint32_t, std::less<>> intern_;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> thread_names_;
};

}  // namespace rtmp::obs
