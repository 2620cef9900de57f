// Differential and fuzz tests for the trace loaders (text + binary):
// write→read round-trip equality on randomized inputs, and randomized
// corruption — truncation, bad magic, flipped bytes, overflowed counts,
// non-numeric fields — must yield a clean std::runtime_error, never a
// crash or a silently partial parse. The ASan+UBSan CI legs run this
// binary too, which is what gives "never a crash" teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/trace_stream.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rtmp::trace {
namespace {

/// Full equality: both formats preserve the variable table (every name,
/// in id order, unaccessed variables included) and the accesses by id.
void ExpectIdentical(const AccessSequence& a, const AccessSequence& b) {
  EXPECT_EQ(a.variable_names(), b.variable_names());
  EXPECT_EQ(a.accesses(), b.accesses());
}

TraceFile RandomTrace(util::Rng& rng) {
  TraceFile file;
  file.benchmark = "fuzz" + std::to_string(rng.NextBelow(1000));
  const std::size_t sequences = 1 + rng.NextBelow(4);
  for (std::size_t s = 0; s < sequences; ++s) {
    file.sequence_names.push_back(rng.NextBool(0.7)
                                      ? "seq" + std::to_string(s)
                                      : "");
    UniformParams params;
    params.num_vars = 1 + rng.NextBelow(20);
    params.length = rng.NextBelow(120);  // may be empty
    params.write_fraction = rng.NextDouble();
    file.sequences.push_back(GenerateUniform(params, rng));
  }
  return file;
}

std::string ToBinary(const TraceFile& file) {
  std::ostringstream out(std::ios::binary);
  WriteBinaryTrace(out, file);
  return out.str();
}

/// Reads `blob` with the binary reader alone, so a corrupt header fails
/// there instead of falling through to the text reader.
TraceFile FromBinary(const std::string& blob) {
  std::istringstream in(blob, std::ios::binary);
  TraceFile file;
  const SequenceSink sink = [&file](const std::string& name,
                                    AccessSequence seq) {
    file.sequence_names.push_back(name);
    file.sequences.push_back(std::move(seq));
  };
  file.benchmark = StreamBinaryTrace(in, sink).benchmark;
  return file;
}

TEST(TraceStream, TextRoundTripOnRandomTraces) {
  util::Rng rng(0xABCDE);
  for (int round = 0; round < 30; ++round) {
    const TraceFile original = RandomTrace(rng);
    const TraceFile parsed =
        ReadTraceFromString(WriteTraceToString(original));
    EXPECT_EQ(parsed.benchmark, original.benchmark);
    ASSERT_EQ(parsed.sequences.size(), original.sequences.size());
    EXPECT_EQ(parsed.sequence_names, original.sequence_names);
    for (std::size_t s = 0; s < parsed.sequences.size(); ++s) {
      ExpectIdentical(original.sequences[s], parsed.sequences[s]);
    }
  }
}

TEST(TraceStream, BinaryRoundTripPreservesEverything) {
  util::Rng rng(0x12345);
  for (int round = 0; round < 30; ++round) {
    const TraceFile original = RandomTrace(rng);
    const TraceFile parsed = FromBinary(ToBinary(original));
    EXPECT_EQ(parsed.benchmark, original.benchmark);
    ASSERT_EQ(parsed.sequences.size(), original.sequences.size());
    EXPECT_EQ(parsed.sequence_names, original.sequence_names);
    for (std::size_t s = 0; s < parsed.sequences.size(); ++s) {
      ExpectIdentical(original.sequences[s], parsed.sequences[s]);
    }
  }
}

TEST(TraceStream, BinaryRoundTripCrossesChunkBoundaries) {
  // One sequence far beyond the reader's 16384-word decode chunk.
  TraceFile file;
  file.benchmark = "big";
  file.sequence_names.push_back("s");
  AccessSequence seq;
  for (std::size_t v = 0; v < 7; ++v) {
    seq.AddVariable(util::Concat({"v", std::to_string(v)}));
  }
  for (std::size_t i = 0; i < 40000; ++i) {
    seq.Append(static_cast<VariableId>(i % 7),
               i % 3 == 0 ? AccessType::kWrite : AccessType::kRead);
  }
  file.sequences.push_back(std::move(seq));
  const TraceFile parsed = FromBinary(ToBinary(file));
  ASSERT_EQ(parsed.sequences.size(), 1u);
  ExpectIdentical(file.sequences[0], parsed.sequences[0]);
}

TEST(TraceStream, StreamingSinkSeesSequencesInOrderWithoutMaterializing) {
  util::Rng rng(0x777);
  const TraceFile original = RandomTrace(rng);
  const std::string text = WriteTraceToString(original);
  std::istringstream in(text);
  std::vector<std::string> names;
  std::vector<AccessSequence> sequences;
  const TraceSummary summary = StreamTextTrace(
      in,
      [&](const std::string& name, AccessSequence seq) {
        names.push_back(name);
        sequences.push_back(std::move(seq));
      },
      {/*require_total=*/true});
  EXPECT_EQ(summary.benchmark, original.benchmark);
  EXPECT_EQ(summary.sequences, original.sequences.size());
  ASSERT_EQ(sequences.size(), original.sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    ExpectIdentical(original.sequences[s], sequences[s]);
  }
}

TEST(TraceStream, TotalFooterCatchesTruncationAndGarbage) {
  const auto sink = [](const std::string&, AccessSequence) {};
  const TraceStreamOptions strict{/*require_total=*/true};
  // Missing footer.
  std::istringstream missing("sequence s\na b a\n");
  EXPECT_THROW(StreamTextTrace(missing, sink, strict), std::runtime_error);
  // Wrong counts.
  std::istringstream wrong("sequence s\na b a\ntotal 1 4\n");
  EXPECT_THROW(StreamTextTrace(wrong, sink), std::runtime_error);
  // Non-numeric fields.
  std::istringstream garbage("sequence s\na b a\ntotal one 3\n");
  EXPECT_THROW(StreamTextTrace(garbage, sink), std::runtime_error);
  std::istringstream arity("sequence s\na b a\ntotal 1\n");
  EXPECT_THROW(StreamTextTrace(arity, sink), std::runtime_error);
  // Content after the footer.
  std::istringstream tail("sequence s\na b a\ntotal 1 3\nsequence t\n");
  EXPECT_THROW(StreamTextTrace(tail, sink), std::runtime_error);
  // A consistent footer passes.
  std::istringstream ok("sequence s\na b a\ntotal 1 3\n");
  const TraceSummary summary = StreamTextTrace(ok, sink, strict);
  EXPECT_EQ(summary.accesses, 3u);
}

TEST(TraceStream, TextTruncationFuzzNeverPassesSilently) {
  util::Rng rng(0xF00D);
  for (int round = 0; round < 20; ++round) {
    const TraceFile original = RandomTrace(rng);
    const std::string text = WriteTraceToString(original);
    std::uint64_t original_accesses = 0;
    for (const auto& seq : original.sequences) {
      original_accesses += seq.size();
    }
    for (int cut = 0; cut < 8; ++cut) {
      const std::size_t keep = rng.NextBelow(text.size());
      std::istringstream in(text.substr(0, keep));
      // Every strict prefix must either fail cleanly or — when the cut
      // only removed trailing whitespace — parse to the FULL trace;
      // a silently shorter parse is the bug this guards against.
      try {
        std::uint64_t accesses = 0;
        std::size_t sequences = 0;
        const TraceSummary summary = StreamTextTrace(
            in,
            [&](const std::string&, AccessSequence seq) {
              accesses += seq.size();
              ++sequences;
            },
            {/*require_total=*/true});
        EXPECT_EQ(accesses, original_accesses);
        EXPECT_EQ(sequences, original.sequences.size());
        EXPECT_EQ(summary.accesses, original_accesses);
      } catch (const std::runtime_error&) {
        // Clean rejection is the expected outcome.
      }
    }
  }
}

TEST(TraceStream, BinaryCorruptionFuzzAlwaysFailsCleanly) {
  util::Rng rng(0xBEEF);
  for (int round = 0; round < 10; ++round) {
    const TraceFile original = RandomTrace(rng);
    const std::string blob = ToBinary(original);
    // Truncation at every kind of offset.
    for (int cut = 0; cut < 12; ++cut) {
      const std::size_t keep = rng.NextBelow(blob.size());
      EXPECT_THROW((void)FromBinary(blob.substr(0, keep)),
                   std::runtime_error)
          << "truncated to " << keep << " of " << blob.size();
    }
    // Any single flipped byte is caught (the checksum covers the whole
    // payload, and the stored checksum itself is compared).
    for (int flip = 0; flip < 24; ++flip) {
      std::string corrupt = blob;
      const std::size_t at = rng.NextBelow(corrupt.size());
      corrupt[at] = static_cast<char>(
          corrupt[at] ^ static_cast<char>(1 + rng.NextBelow(255)));
      EXPECT_THROW((void)FromBinary(corrupt), std::runtime_error)
          << "flipped byte " << at << " of " << corrupt.size();
    }
    // Trailing garbage after a valid file.
    EXPECT_THROW((void)FromBinary(blob + "x"), std::runtime_error);
  }
}

TEST(TraceStream, BinaryHeaderValidation) {
  util::Rng rng(0x51);
  const std::string blob = ToBinary(RandomTrace(rng));
  // Bad magic.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)FromBinary(bad_magic), std::runtime_error);
  // Unsupported version (byte 4 is the little-endian version LSB).
  std::string bad_version = blob;
  bad_version[4] = 9;
  EXPECT_THROW((void)FromBinary(bad_version), std::runtime_error);
  // Overflowed count: the sequence-count word sits right after the
  // benchmark string (whose little-endian length lives at offset 12);
  // patch it to 0xFFFFFFFF.
  std::string bad_count = blob;
  std::uint32_t bench_len = 0;
  for (int i = 0; i < 4; ++i) {
    bench_len |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(blob[12 + i]))
                 << (8 * i);
  }
  const std::size_t seq_count_offset = 12 + 4 + bench_len;
  for (int i = 0; i < 4; ++i) bad_count[seq_count_offset + i] = '\xFF';
  EXPECT_THROW((void)FromBinary(bad_count), std::runtime_error);
  // Empty input.
  EXPECT_THROW((void)FromBinary(""), std::runtime_error);
}

TEST(TraceStream, HugeDeclaredAccessCountFailsAsTruncation) {
  // The reader reserves room for a sequence's declared access count, but
  // only up to a cap: a count far beyond the file (here 2^39 accesses,
  // 4 TiB of Access, still under kMaxTraceAccesses) must fail as a
  // truncated file, not as an allocation failure.
  TraceFile file;
  file.benchmark = "b";
  file.sequence_names.push_back("s");
  file.sequences.push_back(AccessSequence::FromCompactString("abba"));
  std::string blob = ToBinary(file);
  // magic, version, flags; benchmark "b"; sequence count; name "s";
  // variable count; names "a" and "b"; then the u64 access count.
  const std::size_t count_offset = 12 + (4 + 1) + 4 + (4 + 1) + 4 + 2 * (4 + 1);
  ASSERT_EQ(blob[count_offset], '\x04');
  blob[count_offset] = '\0';
  blob[count_offset + 4] = '\x80';
  EXPECT_THROW((void)FromBinary(blob), std::runtime_error);
}

TEST(TraceStream, ReservedVariableNamesRoundTripViaLinePacking) {
  // Variables named like directives ("total", "sequence", "vars") or
  // comments ("#x") are legal mid-line; the writer must never break a
  // line right before one. Enough accesses to cross several wrap points.
  TraceFile file;
  file.sequence_names.push_back("s");
  AccessSequence seq;
  const VariableId a = seq.AddVariable("a");
  const VariableId total = seq.AddVariable("total");
  const VariableId sequence = seq.AddVariable("sequence");
  const VariableId vars = seq.AddVariable("vars");
  const VariableId comment = seq.AddVariable("#x");
  seq.Append(a);
  for (int i = 0; i < 40; ++i) {
    seq.Append(total, i % 2 == 0 ? AccessType::kWrite : AccessType::kRead);
    seq.Append(sequence);
    seq.Append(vars);
    seq.Append(comment);
  }
  file.sequences.push_back(std::move(seq));
  const TraceFile parsed = ReadTraceFromString(WriteTraceToString(file));
  ASSERT_EQ(parsed.sequences.size(), 1u);
  ExpectIdentical(file.sequences[0], parsed.sequences[0]);
  // A sequence whose FIRST access collides has no line to extend into:
  // the writer must refuse rather than emit an unreadable file.
  TraceFile bad;
  bad.sequence_names.push_back("s");
  AccessSequence leading;
  leading.Append(leading.AddVariable("total"));
  bad.sequences.push_back(std::move(leading));
  EXPECT_THROW((void)WriteTraceToString(bad), std::runtime_error);
  // The binary format has no directive grammar: same trace round-trips.
  const TraceFile via_binary = FromBinary(ToBinary(bad));
  ASSERT_EQ(via_binary.sequences.size(), 1u);
  EXPECT_EQ(via_binary.sequences[0].name_of(0), "total");
  // Names that are not one access token would read back as other
  // variables ("x!" as a write to "x"), so the writer refuses them too,
  // accessed or not.
  for (const char* name : {"x!", "p q", ""}) {
    TraceFile untokenizable;
    untokenizable.sequence_names.push_back("s");
    AccessSequence unaccessed;
    (void)unaccessed.AddVariable("a");
    (void)unaccessed.AddVariable(name);
    unaccessed.Append(0);
    untokenizable.sequences.push_back(std::move(unaccessed));
    EXPECT_THROW((void)WriteTraceToString(untokenizable), std::runtime_error)
        << "'" << name << "'";
    const TraceFile binary = FromBinary(ToBinary(untokenizable));
    ExpectIdentical(untokenizable.sequences[0], binary.sequences[0]);
  }
}

/// Three sequences whose variables are registered in reverse or shuffled
/// order against first access, each with 1-3 variables never accessed:
/// the shape on which text ids used to follow first appearance while
/// binary kept the declared table.
TraceFile RegistrationOrderTrace(util::Rng& rng, bool reversed) {
  TraceFile file;
  file.benchmark = reversed ? "reversed" : "shuffled";
  for (std::size_t s = 0; s < 3; ++s) {
    file.sequence_names.emplace_back("s");
    file.sequence_names.back() += std::to_string(s);
    const std::size_t n = 4 + rng.NextBelow(40);
    std::vector<std::string> names;
    for (std::size_t v = 0; v < n; ++v) {
      names.emplace_back("v");
      names.back() += std::to_string(v);
    }
    std::vector<std::string> order = names;
    if (reversed) {
      std::reverse(order.begin(), order.end());
    } else {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBelow(i)]);
      }
    }
    AccessSequence seq;
    for (const std::string& name : order) (void)seq.AddVariable(name);
    const std::size_t accessed = n - 1 - rng.NextBelow(3);
    const std::size_t length = 1 + rng.NextBelow(200);
    for (std::size_t i = 0; i < length; ++i) {
      const std::size_t pick = i < accessed ? i : rng.NextBelow(accessed);
      seq.Append(seq.AddVariable(names[pick]),
                 rng.NextBool(0.3) ? AccessType::kWrite : AccessType::kRead);
    }
    file.sequences.push_back(std::move(seq));
  }
  return file;
}

TEST(TraceStream, TextBinaryAndMemoryAgreeForAnyRegistrationOrder) {
  util::Rng rng(0x0DE5);
  for (const bool reversed : {true, false}) {
    for (int round = 0; round < 10; ++round) {
      const TraceFile original = RegistrationOrderTrace(rng, reversed);
      const TraceFile text = ReadTraceFromString(WriteTraceToString(original));
      const TraceFile binary = FromBinary(ToBinary(original));
      for (const TraceFile* parsed : {&text, &binary}) {
        EXPECT_EQ(parsed->benchmark, original.benchmark);
        EXPECT_EQ(parsed->sequence_names, original.sequence_names);
        ASSERT_EQ(parsed->sequences.size(), original.sequences.size());
        for (std::size_t s = 0; s < original.sequences.size(); ++s) {
          ExpectIdentical(original.sequences[s], parsed->sequences[s]);
        }
      }
    }
  }
}

TEST(TraceStream, VarsDirectiveFixesIdsAndKeepsUnaccessedVariables) {
  // Declared c, b, a, z; z is never accessed.
  TraceFile file;
  file.sequence_names.push_back("s");
  AccessSequence seq;
  for (const char* name : {"c", "b", "a", "z"}) (void)seq.AddVariable(name);
  seq.Append(2);
  seq.Append(1);
  seq.Append(0, AccessType::kWrite);
  seq.Append(2);
  file.sequences.push_back(std::move(seq));
  const std::string text = WriteTraceToString(file);
  EXPECT_NE(text.find("sequence s\nvars c b a z\na b c! a\n"),
            std::string::npos)
      << text;
  const TraceFile parsed = ReadTraceFromString(text);
  ASSERT_EQ(parsed.sequences.size(), 1u);
  EXPECT_EQ(parsed.sequences[0].num_variables(), 4u);
  EXPECT_EQ(parsed.sequences[0].name_of(0), "c");
  ExpectIdentical(file.sequences[0], parsed.sequences[0]);

  // The table may span several lines; an undeclared name is appended.
  const TraceFile split =
      ReadTraceFromString("sequence s\nvars c b\nvars a\nd a b\n");
  EXPECT_EQ(split.sequences[0].variable_names(),
            (std::vector<std::string>{"c", "b", "a", "d"}));
  // Without `vars`, ids follow first appearance, as before the directive.
  const TraceFile legacy = ReadTraceFromString("sequence s\nb a b\n");
  EXPECT_EQ(legacy.sequences[0].variable_names(),
            (std::vector<std::string>{"b", "a"}));

  // Only after `sequence` and before its first access; no duplicates.
  for (const char* bad :
       {"vars a\nsequence s\na\n", "sequence s\na\nvars a\n",
        "sequence s\nvars a b a\n", "sequence s\nvars a\nvars a\n"}) {
    EXPECT_THROW((void)ReadTraceFromString(bad), std::runtime_error) << bad;
  }
}

TEST(TraceStream, AnyAsciiWhitespaceParsesLikeTheCanonicalForm) {
  // Tabs, CRLF line ends, \v, \f and runs of spaces separate tokens
  // exactly like the single spaces and LF line ends of the canonical form
  // (the bytes std::isspace accepts in the "C" locale).
  const std::string canonical =
      "# comment\n"
      "benchmark ws\n"
      "sequence first\n"
      "vars b a z\n"
      "a b! a\n"
      "b a!\n"
      "sequence\n"
      "x y x!\n"
      "total 2 8\n";
  const std::string spaced =
      "\t # comment\r\n"
      "\r\n"
      "benchmark\t\tws\r\n"
      "  sequence \f first\v\r\n"
      "vars\tb\va\fz\r\n"
      "\ta    b!\t \ta\r\n"
      "\v\f\r\n"
      "b\r\n"
      "\fa!\n"
      "sequence   \r\n"
      "x\vy\fx! \r\n"
      "total\t2\v8\r\n";
  const TraceFile want = ReadTraceFromString(canonical);
  const TraceFile got = ReadTraceFromString(spaced);
  EXPECT_EQ(got.benchmark, "ws");
  EXPECT_EQ(got.benchmark, want.benchmark);
  EXPECT_EQ(got.sequence_names,
            (std::vector<std::string>{"first", ""}));
  EXPECT_EQ(got.sequence_names, want.sequence_names);
  ASSERT_EQ(got.sequences.size(), 2u);
  ASSERT_EQ(want.sequences.size(), 2u);
  EXPECT_EQ(got.sequences[0].variable_names(),
            (std::vector<std::string>{"b", "a", "z"}));
  EXPECT_EQ(got.sequences[0].CountWrites(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    ExpectIdentical(got.sequences[s], want.sequences[s]);
  }
  std::istringstream in(spaced);
  EXPECT_EQ(PeekTraceBenchmark(in), "ws");
}

TEST(TraceStream, LoneWriteMarkerKeepsItsRuntimeError) {
  for (const char* bad : {"sequence s\na ! b\n", "sequence s\n\t!\r\n"}) {
    try {
      (void)ReadTraceFromString(bad);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(),
                   "trace: trace token '!' has no variable name");
    }
  }
}

TEST(TraceStream, FindVariableTakesAnyStringView) {
  AccessSequence seq;
  seq.AppendToken("alpha");
  seq.AppendToken(std::string_view("beta!"));
  // Views that are not NUL-terminated at the name's end.
  const std::string_view text = "alphabeta";
  EXPECT_EQ(seq.FindVariable(text.substr(0, 5)), VariableId{0});
  EXPECT_EQ(seq.FindVariable(text.substr(5)), VariableId{1});
  EXPECT_EQ(seq.FindVariable(text.substr(0, 4)), std::nullopt);
  EXPECT_EQ(seq.FindVariable(text), std::nullopt);
  EXPECT_EQ(seq.FindVariable(""), std::nullopt);
  EXPECT_EQ(seq.FindVariable("beta!"), std::nullopt);
  // A repeated name reuses its id; only a new name registers.
  seq.AppendToken(text.substr(5));
  EXPECT_EQ(seq.num_variables(), 2u);
  EXPECT_EQ(seq.accesses(),
            (std::vector<Access>{{0, AccessType::kRead},
                                 {1, AccessType::kWrite},
                                 {1, AccessType::kRead}}));
}

TEST(TraceStream, SniffDispatchesBothFormats) {
  util::Rng rng(0x99);
  const TraceFile original = RandomTrace(rng);
  {
    std::istringstream in(ToBinary(original), std::ios::binary);
    const TraceFile parsed = ReadAnyTrace(in);
    EXPECT_EQ(parsed.benchmark, original.benchmark);
    EXPECT_EQ(parsed.sequences.size(), original.sequences.size());
  }
  {
    std::istringstream in(WriteTraceToString(original));
    const TraceFile parsed = ReadAnyTrace(in);
    EXPECT_EQ(parsed.benchmark, original.benchmark);
    EXPECT_EQ(parsed.sequences.size(), original.sequences.size());
  }
}

TEST(TraceStream, WorkedExampleFileParses) {
  // tests/data/example.trace is the worked example in README.md's
  // "Workloads" section; keep all three in sync.
  const std::string path = std::string(RTMPLACE_TEST_DATA_DIR) +
                           "/example.trace";
  TraceFile file = LoadTraceFile(path, {/*require_total=*/true});
  EXPECT_EQ(file.benchmark, "fir_filter");
  ASSERT_EQ(file.sequences.size(), 2u);
  EXPECT_EQ(file.sequence_names[0], "init");
  EXPECT_EQ(file.sequence_names[1], "main_loop");
  EXPECT_EQ(file.sequences[0].size(), 8u);
  EXPECT_EQ(file.sequences[1].size(), 20u);
  EXPECT_EQ(file.sequences[1].CountWrites(), 6u);
  // Round-trip the example through the binary format too.
  const TraceFile parsed = FromBinary(ToBinary(file));
  for (std::size_t s = 0; s < file.sequences.size(); ++s) {
    ExpectIdentical(file.sequences[s], parsed.sequences[s]);
  }
}

}  // namespace
}  // namespace rtmp::trace
