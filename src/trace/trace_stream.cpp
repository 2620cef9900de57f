#include "trace/trace_stream.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace rtmp::trace {

namespace {

constexpr char kMagic[4] = {'R', 'T', 'M', 'B'};
constexpr std::uint32_t kBinaryVersion = 1;
/// Access word layout: variable id in the low 31 bits, write flag on top.
constexpr std::uint32_t kWriteBit = 0x80000000u;
/// Access words decoded per chunk; bounds the reader's working memory no
/// matter how long a sequence is on disk.
constexpr std::size_t kAccessChunkWords = 16384;
/// Most accesses reserved up front from a binary sequence's declared
/// count (8 MiB of Access): an honest sequence up to this length is
/// allocated once, and a corrupt count claims no more before its words
/// are read. Longer sequences grow from here.
constexpr std::uint64_t kMaxReservedAccesses = 1u << 20;

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("binary trace: " + what);
}

/// FNV-1a 64-bit, the integrity hash of the binary format. Every payload
/// byte (header included) feeds it; the file ends with the digest.
class Fnv1a {
 public:
  void Update(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Little-endian primitive writer that feeds the checksum as it goes.
class ByteWriter {
 public:
  explicit ByteWriter(std::ostream& out) : out_(out) {}

  void Bytes(const void* data, std::size_t size) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(size));
    fnv_.Update(data, size);
  }
  void U32(std::uint32_t value) {
    unsigned char bytes[4];
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    Bytes(bytes, sizeof(bytes));
  }
  void U64(std::uint64_t value) {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    }
    Bytes(bytes, sizeof(bytes));
  }
  void Str(const std::string& text) {
    if (text.size() > kMaxTraceNameLength) {
      Fail("name longer than the format's " +
           std::to_string(kMaxTraceNameLength) + "-byte cap");
    }
    U32(static_cast<std::uint32_t>(text.size()));
    Bytes(text.data(), text.size());
  }
  /// The trailing digest itself is NOT part of the checksummed payload.
  void Digest() {
    const std::uint64_t digest = fnv_.digest();
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<unsigned char>(digest >> (8 * i));
    }
    out_.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
  }

 private:
  std::ostream& out_;
  Fnv1a fnv_;
};

/// Little-endian primitive reader; throws on truncation, validates the
/// trailing checksum against everything it has read.
class ByteReader {
 public:
  explicit ByteReader(std::istream& in) : in_(in) {}

  void Bytes(void* data, std::size_t size) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (static_cast<std::size_t>(in_.gcount()) != size) {
      Fail("truncated file");
    }
    fnv_.Update(data, size);
  }
  [[nodiscard]] std::uint32_t U32() {
    unsigned char bytes[4];
    Bytes(bytes, sizeof(bytes));
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(bytes[i]) << (8 * i);
    }
    return value;
  }
  [[nodiscard]] std::uint64_t U64() {
    unsigned char bytes[8];
    Bytes(bytes, sizeof(bytes));
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }
    return value;
  }
  [[nodiscard]] std::string Str() {
    const std::uint32_t length = U32();
    if (length > kMaxTraceNameLength) {
      Fail("name length " + std::to_string(length) + " exceeds the " +
           std::to_string(kMaxTraceNameLength) + "-byte cap");
    }
    std::string text(length, '\0');
    Bytes(text.data(), length);
    return text;
  }
  /// Reads the trailing digest (excluded from the checksum) and compares
  /// it against everything read so far.
  void VerifyDigest() {
    const std::uint64_t expected = fnv_.digest();
    unsigned char bytes[8];
    in_.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
    if (static_cast<std::size_t>(in_.gcount()) != sizeof(bytes)) {
      Fail("truncated file (checksum missing)");
    }
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }
    if (stored != expected) Fail("checksum mismatch (corrupt file)");
    if (in_.peek() != std::istream::traits_type::eof()) {
      Fail("trailing data after checksum");
    }
  }

 private:
  std::istream& in_;
  Fnv1a fnv_;
};

/// Reads the RTMB header: magic, version, flags and the benchmark name,
/// which it returns. Throws on a bad magic, version or flags.
[[nodiscard]] std::string ReadBinaryHeader(ByteReader& reader) {
  char magic[4];
  reader.Bytes(magic, sizeof(magic));
  if (!std::equal(magic, magic + 4, kMagic)) Fail("bad magic");
  const std::uint32_t version = reader.U32();
  if (version != kBinaryVersion) {
    Fail("unsupported version " + std::to_string(version));
  }
  const std::uint32_t flags = reader.U32();
  if (flags != 0) Fail("unknown flags");
  return reader.Str();
}

/// True when `in` is seekable and starts with the RTMB magic; leaves the
/// read position where it was. Non-seekable streams read as text.
[[nodiscard]] bool StartsWithBinaryMagic(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) return false;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  const bool binary =
      in.gcount() == sizeof(magic) && std::equal(magic, magic + 4, kMagic);
  in.clear();
  in.seekg(start);
  return binary;
}

[[nodiscard]] std::uint64_t ParseCount(std::string_view token,
                                       std::string_view what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    throw std::runtime_error("trace: non-numeric " + std::string(what) +
                             " '" + std::string(token) + "' in 'total'");
  }
  return value;
}

}  // namespace

TraceSummary StreamTextTrace(std::istream& in, const SequenceSink& sink,
                             const TraceStreamOptions& options) {
  TraceSummary summary;
  AccessSequence current;
  std::string current_name;
  bool in_sequence = false;
  bool saw_total = false;
  std::uint64_t declared_sequences = 0;
  std::uint64_t declared_accesses = 0;
  std::size_t last_length = 0;  // accesses of the last finished sequence

  const auto flush = [&] {
    if (!in_sequence) return;
    last_length = current.size();
    summary.accesses += current.size();
    ++summary.sequences;
    sink(current_name, std::move(current));
    current = AccessSequence();
  };

  std::string line;
  std::vector<std::string_view> tokens;  // views into `line`
  while (std::getline(in, line)) {
    util::SplitWhitespace(line, tokens);
    if (tokens.empty() || tokens.front().front() == '#') continue;
    if (saw_total) {
      throw std::runtime_error("trace: content after the 'total' footer");
    }
    if (tokens.front() == "benchmark") {
      if (tokens.size() != 2) {
        throw std::runtime_error("trace: 'benchmark' needs exactly one name");
      }
      summary.benchmark = tokens[1];
      continue;
    }
    if (tokens.front() == "sequence") {
      if (tokens.size() > 2) {
        throw std::runtime_error("trace: 'sequence' takes at most one name");
      }
      flush();
      in_sequence = true;
      current_name = tokens.size() == 2 ? tokens[1] : "";
      // A text sequence declares no length. The sequences of one file
      // tend to be alike, so the last one's length is the guess: a right
      // guess allocates once, not once per growth step, and it is never
      // more than the reader already held.
      current.ReserveAccesses(last_length);
      continue;
    }
    if (tokens.front() == "vars") {
      if (!in_sequence || !current.empty()) {
        throw std::runtime_error(
            "trace: 'vars' must follow 'sequence', before any access");
      }
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        const std::size_t declared = current.num_variables();
        (void)current.AddVariable(std::string(tokens[t]));
        if (current.num_variables() == declared) {
          throw std::runtime_error(util::Concat(
              {"trace: duplicate variable '", tokens[t], "' in 'vars'"}));
        }
      }
      continue;
    }
    if (tokens.front() == "total") {
      if (tokens.size() != 3) {
        throw std::runtime_error(
            "trace: 'total' needs <sequences> <accesses>");
      }
      declared_sequences = ParseCount(tokens[1], "sequence count");
      declared_accesses = ParseCount(tokens[2], "access count");
      saw_total = true;
      continue;
    }
    if (!in_sequence) {
      throw std::runtime_error(
          "trace: access tokens before any 'sequence' directive");
    }
    for (const std::string_view token : tokens) {
      try {
        current.AppendToken(token);
      } catch (const std::invalid_argument& error) {
        // One shared grammar (AccessSequence::AppendToken); re-wrap so
        // this reader keeps its documented runtime_error contract.
        throw std::runtime_error("trace: " + std::string(error.what()));
      }
    }
  }
  flush();

  if (saw_total) {
    if (declared_sequences != summary.sequences ||
        declared_accesses != summary.accesses) {
      throw std::runtime_error(
          "trace: 'total' footer mismatch (file truncated or corrupt): "
          "declared " +
          std::to_string(declared_sequences) + " sequences / " +
          std::to_string(declared_accesses) + " accesses, found " +
          std::to_string(summary.sequences) + " / " +
          std::to_string(summary.accesses));
    }
  } else if (options.require_total) {
    throw std::runtime_error(
        "trace: missing 'total' footer (file truncated?)");
  }
  return summary;
}

TraceSummary StreamBinaryTrace(std::istream& in, const SequenceSink& sink) {
  ByteReader reader(in);
  TraceSummary summary;
  summary.benchmark = ReadBinaryHeader(reader);
  const std::uint32_t num_sequences = reader.U32();
  if (num_sequences > kMaxTraceSequences) Fail("sequence count overflow");

  std::vector<std::uint32_t> chunk;
  for (std::uint32_t s = 0; s < num_sequences; ++s) {
    const std::string name = reader.Str();
    const std::uint32_t num_variables = reader.U32();
    if (num_variables > kMaxTraceVariables) Fail("variable count overflow");
    AccessSequence seq;
    for (std::uint32_t v = 0; v < num_variables; ++v) {
      (void)seq.AddVariable(reader.Str());
    }
    // AddVariable dedups: a repeated name would silently merge two ids
    // and break the id bound below.
    if (seq.num_variables() != num_variables) {
      Fail("duplicate variable name in sequence " + std::to_string(s));
    }
    const std::uint64_t num_accesses = reader.U64();
    if (num_accesses > kMaxTraceAccesses) Fail("access count overflow");
    seq.ReserveAccesses(static_cast<std::size_t>(
        std::min(num_accesses, kMaxReservedAccesses)));
    // Chunked decode: at most kAccessChunkWords words in memory at once.
    std::uint64_t remaining = num_accesses;
    while (remaining > 0) {
      const std::size_t batch = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, kAccessChunkWords));
      chunk.resize(batch);
      reader.Bytes(chunk.data(), batch * sizeof(std::uint32_t));
      for (std::size_t i = 0; i < batch; ++i) {
        // The words were checksummed as raw bytes; decode little-endian
        // explicitly so big-endian hosts agree.
        const auto* bytes =
            reinterpret_cast<const unsigned char*>(&chunk[i]);
        std::uint32_t word = 0;
        for (int b = 0; b < 4; ++b) {
          word |= static_cast<std::uint32_t>(bytes[b]) << (8 * b);
        }
        const std::uint32_t id = word & ~kWriteBit;
        if (id >= num_variables) {
          Fail("access to out-of-range variable id " + std::to_string(id));
        }
        seq.Append(id, (word & kWriteBit) != 0 ? AccessType::kWrite
                                               : AccessType::kRead);
      }
      remaining -= batch;
    }
    summary.accesses += seq.size();
    ++summary.sequences;
    sink(name, std::move(seq));
  }
  reader.VerifyDigest();
  return summary;
}

TraceSummary StreamTrace(std::istream& in, const SequenceSink& sink,
                         const TraceStreamOptions& options) {
  if (StartsWithBinaryMagic(in)) return StreamBinaryTrace(in, sink);
  return StreamTextTrace(in, sink, options);
}

std::string PeekTraceBenchmark(std::istream& in) {
  if (StartsWithBinaryMagic(in)) {
    // Header only: the checksum covers the whole file and is not
    // validated here — the full pass does that.
    ByteReader reader(in);
    return ReadBinaryHeader(reader);
  }
  std::string line;
  std::vector<std::string_view> tokens;  // views into `line`
  while (std::getline(in, line)) {
    util::SplitWhitespace(line, tokens);
    if (tokens.empty() || tokens.front().front() == '#') continue;
    if (tokens.front() == "benchmark") {
      if (tokens.size() != 2) {
        throw std::runtime_error("trace: 'benchmark' needs exactly one name");
      }
      return std::string(tokens[1]);
    }
    // Anything else means the head holds no benchmark declaration.
    break;
  }
  return "";
}

void WriteBinaryTrace(std::ostream& out, const TraceFile& trace) {
  // Enforce the reader's caps on the way out too: a file that writes
  // but can never be read back (or whose counts truncate through the
  // u32 casts into a checksum-valid lie) must not exist.
  if (trace.sequences.size() > kMaxTraceSequences) {
    Fail("sequence count exceeds the format cap");
  }
  ByteWriter writer(out);
  writer.Bytes(kMagic, sizeof(kMagic));
  writer.U32(kBinaryVersion);
  writer.U32(0);  // flags
  writer.Str(trace.benchmark);
  writer.U32(static_cast<std::uint32_t>(trace.sequences.size()));
  for (std::size_t s = 0; s < trace.sequences.size(); ++s) {
    const AccessSequence& seq = trace.sequences[s];
    if (seq.num_variables() > kMaxTraceVariables) {
      Fail("variable count exceeds the format cap");
    }
    if (seq.size() > kMaxTraceAccesses) {
      Fail("access count exceeds the format cap");
    }
    writer.Str(s < trace.sequence_names.size() ? trace.sequence_names[s]
                                               : std::string());
    writer.U32(static_cast<std::uint32_t>(seq.num_variables()));
    for (const std::string& name : seq.variable_names()) writer.Str(name);
    writer.U64(seq.size());
    for (const Access& access : seq.accesses()) {
      writer.U32(access.variable |
                 (access.type == AccessType::kWrite ? kWriteBit : 0));
    }
  }
  writer.Digest();
}

TraceFile ReadAnyTrace(std::istream& in, const TraceStreamOptions& options) {
  TraceFile file;
  const SequenceSink sink = [&file](const std::string& name,
                                    AccessSequence seq) {
    file.sequence_names.push_back(name);
    file.sequences.push_back(std::move(seq));
  };
  file.benchmark = StreamTrace(in, sink, options).benchmark;
  return file;
}

TraceFile LoadTraceFile(const std::string& path,
                        const TraceStreamOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return ReadAnyTrace(in, options);
}

}  // namespace rtmp::trace
