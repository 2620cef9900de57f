// rtmlint: hot-path — see trace_recorder.h.
#include "obs/trace_recorder.h"

#include <algorithm>

#include "util/json.h"

namespace rtmp::obs {

TraceRecorder::TraceRecorder(std::size_t capacity) { Reserve(capacity); }

void TraceRecorder::Reserve(std::size_t capacity) {
  if (capacity > events_.size()) events_.resize(capacity);
}

std::uint32_t TraceRecorder::Intern(std::string_view text) {
  const auto it = intern_.find(text);
  if (it != intern_.end()) return it->second;
  const std::uint32_t index = static_cast<std::uint32_t>(strings_.size());
  strings_.resize(strings_.size() + 1);
  strings_[index] = std::string(text);
  intern_.emplace(strings_[index], index);
  return index;
}

void TraceRecorder::Append(const Event& event,
                           std::span<const Arg> args) noexcept {
  if (size_ >= events_.size()) {
    ++dropped_;
    return;
  }
  Event& slot = events_[size_];
  slot = event;
  const std::size_t n = std::min(args.size(), kMaxArgs);
  for (std::size_t i = 0; i < n; ++i) slot.args[i] = args[i];
  slot.num_args = static_cast<std::uint8_t>(n);
  ++size_;
}

void TraceRecorder::Complete(TraceName name, std::uint32_t pid,
                             std::uint32_t tid, double ts_ns, double dur_ns,
                             std::span<const Arg> args) noexcept {
  Event event;
  event.name = name;
  event.pid = pid;
  event.tid = tid;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.phase = Phase::kComplete;
  Append(event, args);
}

void TraceRecorder::Instant(TraceName name, std::uint32_t pid,
                            std::uint32_t tid, double ts_ns,
                            std::span<const Arg> args) noexcept {
  Event event;
  event.name = name;
  event.pid = pid;
  event.tid = tid;
  event.ts_ns = ts_ns;
  event.phase = Phase::kInstant;
  Append(event, args);
}

void TraceRecorder::SetProcessName(std::uint32_t pid, std::string_view name) {
  process_names_[pid] = std::string(name);
}

void TraceRecorder::SetThreadName(std::uint32_t pid, std::uint32_t tid,
                                  std::string_view name) {
  thread_names_[{pid, tid}] = std::string(name);
}

void TraceRecorder::Merge(const TraceRecorder& other) {
  Reserve(size_ + other.size_);
  for (std::size_t i = 0; i < other.size_; ++i) {
    Event& slot = events_[size_++];
    slot = other.events_[i];
    // Names and keys are literals; string values index `other`'s table.
    for (std::size_t a = 0; a < slot.num_args; ++a) {
      Arg& arg = slot.args[a];
      if (!arg.is_string) continue;
      const auto index = static_cast<std::size_t>(arg.value);
      arg.value = Intern(other.strings_[index]);
    }
  }
  dropped_ += other.dropped_;
  for (const auto& [pid, name] : other.process_names_) {
    process_names_[pid] = name;
  }
  for (const auto& [key, name] : other.thread_names_) {
    thread_names_[key] = name;
  }
}

namespace {

/// Simulated ns -> trace-format microseconds.
double ToMicros(double ns) { return ns / 1000.0; }

}  // namespace

void TraceRecorder::WriteEvent(util::JsonWriter& writer,
                               const Event& event) const {
  writer.BeginObject();
  writer.Member("name", event.name.c_str());
  writer.Member("ph", event.phase == Phase::kComplete ? "X" : "i");
  writer.Member("ts", ToMicros(event.ts_ns));
  if (event.phase == Phase::kComplete) {
    writer.Member("dur", ToMicros(event.dur_ns));
  } else {
    writer.Member("s", "t");
  }
  writer.Member("pid", event.pid);
  writer.Member("tid", event.tid);
  if (event.num_args > 0) {
    writer.Key("args");
    writer.BeginObject();
    for (std::size_t a = 0; a < event.num_args; ++a) {
      const Arg& arg = event.args[a];
      writer.Key(arg.key.c_str());
      if (arg.is_string) {
        writer.String(strings_[static_cast<std::size_t>(arg.value)]);
      } else {
        writer.UInt(arg.value);
      }
    }
    writer.EndObject();
  }
  writer.EndObject();
}

void TraceRecorder::WriteJson(util::JsonWriter& writer) const {
  writer.BeginObject();
  writer.Key("traceEvents");
  writer.BeginArray();
  for (const auto& [pid, name] : process_names_) {
    writer.BeginObject();
    writer.Member("name", "process_name");
    writer.Member("ph", "M");
    writer.Member("pid", pid);
    writer.Member("tid", 0u);
    writer.Key("args");
    writer.BeginObject();
    writer.Member("name", name);
    writer.EndObject();
    writer.EndObject();
  }
  for (const auto& [key, name] : thread_names_) {
    writer.BeginObject();
    writer.Member("name", "thread_name");
    writer.Member("ph", "M");
    writer.Member("pid", key.first);
    writer.Member("tid", key.second);
    writer.Key("args");
    writer.BeginObject();
    writer.Member("name", name);
    writer.EndObject();
    writer.EndObject();
  }
  for (std::size_t i = 0; i < size_; ++i) {
    WriteEvent(writer, events_[i]);
  }
  writer.EndArray();
  if (dropped_ > 0) writer.Member("droppedEvents", dropped_);
  writer.EndObject();
}

std::string TraceRecorder::ToJson(int indent) const {
  std::string out;
  util::JsonWriter writer(&out, indent);
  WriteJson(writer);
  return out;
}

}  // namespace rtmp::obs
