// rtmlint's rule layer: findings, the Rule interface and the name-keyed
// RuleRegistry — the same util::Registry template as
// core::StrategyRegistry (sorted flat vector, lowercase-normalized keys,
// lazy construction, explicit RegisterBuiltinRules for the Global()
// instance). Rule names are unique across categories: a second rule
// under a taken name is a duplicate, whatever its category.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rtmlint/lexer.h"
#include "util/registry.h"

namespace rtmp::rtmlint {

enum class Severity : std::uint8_t { kWarning, kError };

/// "warning" / "error".
[[nodiscard]] const char* ToString(Severity severity) noexcept;

/// Inverse of ToString; throws std::invalid_argument on unknown text.
[[nodiscard]] Severity ParseSeverity(std::string_view text);

/// One lint finding. `context` is the trimmed source text of `line`:
/// baselines match on it instead of on line numbers, so unrelated edits
/// above a grandfathered finding do not invalidate the baseline.
struct Finding {
  enum class Status : std::uint8_t {
    kNew,         ///< fails the run
    kSuppressed,  ///< matched a justified NOLINT
    kBaselined,   ///< matched a baseline entry
  };

  std::string file;
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
  std::string context;
  Status status = Status::kNew;
  /// NOLINT justification or baseline reason once matched.
  std::string note;
};

/// "new" / "suppressed" / "baselined".
[[nodiscard]] const char* ToString(Finding::Status status) noexcept;

/// One scanned file, pre-lexed, plus the file-system facts rules need
/// (tests build these from in-memory snippets via FromString).
struct SourceFile {
  std::string path;  ///< forward-slash path as given on the command line
  bool is_header = false;
  /// Set when a same-directory header with the .cpp's basename exists;
  /// the include-hygiene rule then requires it to be the first include.
  bool has_sibling_header = false;
  std::string sibling_header;  ///< basename, e.g. "lexer.h"
  std::vector<std::string> lines;
  LexedSource lex;
  std::vector<Suppression> suppressions;

  /// Builds a SourceFile from an in-memory buffer. Sibling-header
  /// detection needs the file system and stays in the driver's loader;
  /// tests set has_sibling_header/sibling_header directly.
  [[nodiscard]] static SourceFile FromString(std::string path,
                                             std::string_view content);

  /// Trimmed text of 1-based `line`; "" when out of range.
  [[nodiscard]] std::string LineText(int line) const;
};

struct RuleInfo {
  /// Registry key: lowercase, unique ("determinism-rng", ...).
  std::string name;
  /// Rule family for listings ("determinism", "hygiene", ...).
  std::string category;
  Severity severity = Severity::kError;
  /// One-line human-readable description for list-rules output.
  std::string summary;
};

/// One lint rule. Implementations must be stateless: the driver may
/// check many files through one instance.
class Rule {
 public:
  virtual ~Rule() = default;

  [[nodiscard]] virtual const RuleInfo& Describe() const noexcept = 0;

  /// Appends this rule's findings for `file` to `out`. Implementations
  /// fill file/line/rule/severity/message; the driver stamps context,
  /// suppressions and baseline status afterwards.
  virtual void Check(const SourceFile& file,
                     std::vector<Finding>* out) const = 0;
};

/// Name -> rule registry (util/registry.h); see file comment.
using RuleRegistry = util::Registry<Rule>;

/// RAII self-registration into RuleRegistry::Global(), for rules defined
/// outside rtmlint itself (see util::Registrar).
using RuleRegistrar = util::Registrar<Rule>;

/// Registers the built-in rules into `registry`: determinism-rng,
/// unordered-iteration, registry-discipline, naked-new, include-hygiene,
/// nolint-justification and hot-path-alloc (the advisory
/// warning-severity rule for files tagged `rtmlint: hot-path`).
/// Global() calls this once; tests use it to build fresh registries.
void RegisterBuiltinRules(RuleRegistry& registry);

/// RuleRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(RuleRegistry& registry) {
  RegisterBuiltinRules(registry);
}

}  // namespace rtmp::rtmlint
