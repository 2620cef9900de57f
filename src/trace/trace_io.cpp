#include "trace/trace_io.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "trace/trace_stream.h"

namespace rtmp::trace {

TraceFile ReadTraceFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadAnyTrace(in);
}

namespace {

/// True when `token`, placed first on a line, would be (mis)parsed as a
/// directive or a comment instead of an access. The writer must never
/// break a line right before such a token.
bool MisparsesAtLineStart(const std::string& token) {
  return token == "benchmark" || token == "sequence" || token == "vars" ||
         token == "total" || (!token.empty() && token.front() == '#');
}

/// True when `name` does not read back as one access token: the reader
/// splits on whitespace and takes a trailing '!' as the write mark.
bool NotOneToken(const std::string& name) {
  return name.empty() || name.back() == '!' ||
         std::any_of(name.begin(), name.end(), [](char c) {
           return std::isspace(static_cast<unsigned char>(c)) != 0;
         });
}

constexpr std::size_t kPerLine = 16;

}  // namespace

void WriteTrace(std::ostream& out, const TraceFile& trace) {
  out << "# rtmplace trace v1\n";
  if (!trace.benchmark.empty()) out << "benchmark " << trace.benchmark << '\n';
  std::uint64_t total_accesses = 0;
  for (std::size_t i = 0; i < trace.sequences.size(); ++i) {
    out << "sequence";
    if (i < trace.sequence_names.size() && !trace.sequence_names[i].empty()) {
      out << ' ' << trace.sequence_names[i];
    }
    out << '\n';
    const AccessSequence& seq = trace.sequences[i];
    total_accesses += seq.size();
    // The variable table in id order, so the reader rebuilds the same ids
    // and keeps variables that are never accessed.
    for (VariableId v = 0; v < seq.num_variables(); ++v) {
      if (NotOneToken(seq.name_of(v))) {
        throw std::runtime_error(
            "trace: variable name '" + seq.name_of(v) +
            "' is empty, holds whitespace or ends in '!'; this trace is not "
            "representable in the text format (use WriteBinaryTrace)");
      }
      out << (v % kPerLine == 0 ? "vars " : " ") << seq.name_of(v);
      if ((v + 1) % kPerLine == 0 || v + 1 == seq.num_variables()) out << '\n';
    }
    std::size_t on_line = 0;
    for (std::size_t j = 0; j < seq.size(); ++j) {
      const std::string& name = seq.name_of(seq[j].variable);
      // The reader only treats the FIRST token of a line as a
      // directive/comment, so a colliding variable name ("total", "#x")
      // is representable anywhere but at a line start: extend the
      // current line past the wrap width instead of breaking before it.
      // Only a sequence's very first access has no line to extend.
      if (on_line == 0 && MisparsesAtLineStart(name)) {
        throw std::runtime_error(
            "trace: sequence starts with variable '" + name +
            "', which would parse as a directive at a line start; this "
            "trace is not representable in the text format (use "
            "WriteBinaryTrace)");
      }
      out << name;
      if (seq[j].type == AccessType::kWrite) out << '!';
      ++on_line;
      const bool last = j + 1 == seq.size();
      const bool wrap =
          on_line >= kPerLine &&
          !(j + 1 < seq.size() &&
            MisparsesAtLineStart(seq.name_of(seq[j + 1].variable)));
      if (last || wrap) {
        out << '\n';
        on_line = 0;
      } else {
        out << ' ';
      }
    }
  }
  // Truncation guard: readers cross-check these counts when present
  // (and can insist on them; see TraceStreamOptions::require_total).
  out << "total " << trace.sequences.size() << ' ' << total_accesses << '\n';
}

std::string WriteTraceToString(const TraceFile& trace) {
  std::ostringstream out;
  WriteTrace(out, trace);
  return out.str();
}

}  // namespace rtmp::trace
