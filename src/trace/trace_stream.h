// Streaming trace ingestion: external (possibly multi-million-access)
// traces converted to AccessSequences one sequence at a time, without
// materializing the whole file.
//
// Two on-disk formats share one sink interface:
//
//  * Text — the "rtmplace trace v1" format of trace/trace_io.h, parsed
//    line by line. Machine-written files end with a
//    `total <sequences> <accesses>` footer (WriteTrace emits it); with
//    TraceStreamOptions::require_total the reader rejects files whose
//    footer is missing or inconsistent, so truncation cannot pass as a
//    shorter-but-valid trace.
//
//  * Binary ("RTMB" v1) — a compact little-endian format for large
//    traces: magic/version header, length-prefixed benchmark/sequence/
//    variable names, per-sequence u32 access words (bit 31 = write),
//    and a trailing FNV-1a checksum over everything before it. Any
//    corruption — truncation, a flipped byte, an overflowed count —
//    yields a clean std::runtime_error, never a crash or a silently
//    partial parse. See README.md ("Workloads") for the byte layout.
//
// Readers validate counts against hard caps before allocating, so a
// corrupt length field cannot trigger an allocation explosion.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "trace/access_sequence.h"
#include "trace/trace_io.h"

namespace rtmp::trace {

/// Hard caps a reader enforces before trusting an on-disk count.
inline constexpr std::size_t kMaxTraceNameLength = 4096;
inline constexpr std::size_t kMaxTraceSequences = 1u << 20;
inline constexpr std::size_t kMaxTraceVariables = 1u << 26;
inline constexpr std::uint64_t kMaxTraceAccesses = 1ULL << 40;

struct TraceStreamOptions {
  /// Reject text traces without a consistent `total` footer. Off by
  /// default: hand-written files may legitimately omit it.
  bool require_total = false;
};

/// Receives each completed sequence in file order. The sequence is moved
/// to the sink; the reader holds at most one sequence at a time.
using SequenceSink =
    std::function<void(const std::string& name, AccessSequence sequence)>;

/// What a streaming pass saw (for logging and footer validation).
struct TraceSummary {
  std::string benchmark;
  std::size_t sequences = 0;
  std::uint64_t accesses = 0;
};

/// Streams the text format. Throws std::runtime_error on malformed
/// input; see trace/trace_io.h for the line grammar.
TraceSummary StreamTextTrace(std::istream& in, const SequenceSink& sink,
                             const TraceStreamOptions& options = {});

/// Streams the binary format (header + checksum validated).
TraceSummary StreamBinaryTrace(std::istream& in, const SequenceSink& sink);

/// Sniffs the magic bytes and dispatches to the binary or text reader.
TraceSummary StreamTrace(std::istream& in, const SequenceSink& sink,
                         const TraceStreamOptions& options = {});

/// Reads just the benchmark name from the head of a trace stream (either
/// format, sniffed by magic) without touching any sequence data — the
/// streaming experiment path needs it up front for seed derivation,
/// while StreamTrace only reports it at end-of-stream. Returns "" when
/// no name is declared before the first sequence (both writers emit it
/// first; a nonconforming text file with a late `benchmark` directive
/// peeks as "" and gets the caller's fallback naming). Consumes the
/// stream — reopen or rewind before the full streaming pass. Throws
/// std::runtime_error on a malformed header.
[[nodiscard]] std::string PeekTraceBenchmark(std::istream& in);

/// Serializes `trace` in the binary format;
/// ReadAnyTrace(WriteBinaryTrace(t)) round-trips benchmark name,
/// sequence names, variable names, access order and access types.
void WriteBinaryTrace(std::ostream& out, const TraceFile& trace);

/// Materializing convenience over StreamTrace: reads either format.
[[nodiscard]] TraceFile ReadAnyTrace(std::istream& in,
                                     const TraceStreamOptions& options = {});

/// Opens and reads `path` in either format (binary sniffed by magic).
/// Throws std::runtime_error when the file cannot be opened or parsed.
[[nodiscard]] TraceFile LoadTraceFile(const std::string& path,
                                      const TraceStreamOptions& options = {});

}  // namespace rtmp::trace
