// Text serialization of access traces.
//
// Format ("rtmplace trace v1"), line oriented:
//
//   # comment                          -- ignored
//   benchmark <name>                   -- optional benchmark name
//   sequence [<name>]                  -- starts a new access sequence
//   vars <name> ...                    -- optional: the variable table
//   a b a c! b ...                     -- accesses; '!' suffix marks a write
//   total <sequences> <accesses>       -- optional footer (truncation guard)
//
// Access lines may be split over multiple lines; a sequence ends at the next
// `sequence` directive or end of file. This mirrors the shape of OffsetStone
// inputs (one file per benchmark, many access sequences per file).
//
// `vars` lines declare the sequence's variables in id order, including
// ones never accessed; they are legal only before the sequence's first
// access, and a repeated name is an error. Without them, ids follow first
// appearance, which keeps files written before `vars` readable.
//
// WriteTrace emits the `vars` table after every `sequence` line and
// always emits the `total` footer; readers validate the footer when
// present (and it must be the last directive). The readers, for this
// format and the compact binary one, live in trace/trace_stream.h:
// ReadAnyTrace and LoadTraceFile sniff the format, and StreamTrace
// streams large traces sequence by sequence.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/access_sequence.h"

namespace rtmp::trace {

/// A parsed trace file: a named benchmark with one sequence per entry.
struct TraceFile {
  std::string benchmark;
  std::vector<std::string> sequence_names;
  std::vector<AccessSequence> sequences;
};

/// Parses a trace held in a string (convenience for tests). Throws
/// std::runtime_error on malformed input (unknown directive, access
/// tokens before any `sequence`). Streams and files are read with
/// ReadAnyTrace / LoadTraceFile (trace/trace_stream.h).
[[nodiscard]] TraceFile ReadTraceFromString(const std::string& text);

/// Serializes a trace; reading it back round-trips variable ids
/// and names (zero-access variables included), access order and access
/// types — the same TraceFile the binary format gives back.
void WriteTrace(std::ostream& out, const TraceFile& trace);

/// Serializes to a string (convenience for tests).
[[nodiscard]] std::string WriteTraceToString(const TraceFile& trace);

}  // namespace rtmp::trace
