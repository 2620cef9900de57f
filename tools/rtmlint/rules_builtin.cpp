// The built-in rule set: the project invariants behind the bit-identical
// BENCH_*.json guarantee, encoded as token-level checks.
//
// Every rule works on the scanner's token stream (rtmlint/lexer.h), so
// banned names inside comments or string literals never fire, and every
// rule is suppressible with `// NOLINT(rtmlint:<rule>): <why>`.
#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rtmlint/rules.h"
#include "util/strings.h"

namespace rtmp::rtmlint {

namespace {

using Tokens = std::vector<Token>;

[[nodiscard]] bool IsIdent(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kIdentifier && token.text == text;
}

[[nodiscard]] bool IsPunct(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kPunct && token.text == text;
}

[[nodiscard]] bool EndsWith(std::string_view text,
                            std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(),
                      suffix) == 0;
}

void Emit(const SourceFile& file, const RuleInfo& info, int line,
          std::string message, std::vector<Finding>* out) {
  Finding finding;
  finding.file = file.path;
  finding.line = line;
  finding.rule = info.name;
  finding.severity = info.severity;
  finding.message = std::move(message);
  out->push_back(std::move(finding));
}

/// Index of the token after a balanced <...> starting at `open` (which
/// must point at "<"); `open` itself when the run never closes within
/// `limit` tokens (not a template argument list after all).
[[nodiscard]] std::size_t SkipAngles(const Tokens& tokens, std::size_t open,
                                     std::size_t limit = 256) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < tokens.size() && i < open + limit; ++i) {
    if (IsPunct(tokens[i], "<")) ++depth;
    if (IsPunct(tokens[i], ">")) {
      if (--depth == 0) return i + 1;
    }
    // A ; before the list closes means this < was a comparison.
    if (IsPunct(tokens[i], ";")) break;
  }
  return open;
}

// ---- determinism-rng -------------------------------------------------------
//
// All randomness flows through util::Rng (xoshiro256**, splitmix64
// seeding): a libstdc++ engine or a raw clock read is exactly how
// platform-dependent bits leak into BENCH_*.json goldens. Wall-clock
// timing has one whitelisted path, core::RunTimed (strategy_registry.cpp),
// which stamps PlacementResult::wall_ms for everyone.
class DeterminismRngRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "determinism-rng", "determinism", Severity::kError,
        "bans std library RNGs and raw clock reads; randomness goes "
        "through util::Rng, timing through core::RunTimed"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    static constexpr std::array<std::string_view, 12> kEngines = {
        "random_device", "mt19937",        "mt19937_64",
        "minstd_rand",   "minstd_rand0",   "default_random_engine",
        "random_shuffle", "ranlux24",      "ranlux48",
        "knuth_b",       "rand_r",         "drand48"};
    static constexpr std::array<std::string_view, 3> kClockTypes = {
        "system_clock", "high_resolution_clock", "steady_clock"};
    static constexpr std::array<std::string_view, 4> kClockCalls = {
        "time", "clock", "gettimeofday", "clock_gettime"};
    // The one legal raw-clock site: RunTimed's implementation.
    const bool clock_whitelisted =
        EndsWith(file.path, "core/strategy_registry.cpp");

    const Tokens& tokens = file.lex.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (token.kind != TokenKind::kIdentifier) continue;
      const bool prev_member =
          i > 0 && (IsPunct(tokens[i - 1], ".") ||
                    IsPunct(tokens[i - 1], "->"));
      const bool next_call =
          i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(");
      if (std::find(kEngines.begin(), kEngines.end(), token.text) !=
          kEngines.end()) {
        Emit(file, Describe(), token.line,
             "std::" + token.text +
                 " is banned: all randomness flows through util::Rng "
                 "(xoshiro256**) so runs are bit-identical across "
                 "platforms",
             out);
        continue;
      }
      if ((token.text == "rand" || token.text == "srand") && !prev_member &&
          (next_call ||
           (i > 0 && IsPunct(tokens[i - 1], "::")))) {
        Emit(file, Describe(), token.line,
             token.text + "() is banned: seed and draw via util::Rng",
             out);
        continue;
      }
      if (clock_whitelisted) continue;
      if (std::find(kClockTypes.begin(), kClockTypes.end(), token.text) !=
          kClockTypes.end()) {
        Emit(file, Describe(), token.line,
             "raw std::chrono::" + token.text +
                 " read outside core::RunTimed: route timing through "
                 "RunTimed() or suppress with a justification",
             out);
        continue;
      }
      if (!prev_member && next_call &&
          std::find(kClockCalls.begin(), kClockCalls.end(), token.text) !=
              kClockCalls.end()) {
        Emit(file, Describe(), token.line,
             token.text +
                 "() reads a wall clock: route timing through "
                 "core::RunTimed()",
             out);
      }
    }
  }
};

// ---- unordered-iteration ---------------------------------------------------
//
// Iterating an unordered container visits elements in hash order, which
// differs across libstdc++ versions and (for pointer keys) across runs:
// any such loop that feeds a report, JSON, CSV or golden file makes the
// output machine-dependent. Lookups (find/contains/count/operator[])
// are fine; only iteration order is the hazard.
class UnorderedIterationRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "unordered-iteration", "determinism", Severity::kError,
        "flags loops over std::unordered_{map,set}: hash order leaks "
        "into results; iterate a sorted copy instead"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    static constexpr std::array<std::string_view, 4> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const Tokens& tokens = file.lex.tokens;
    const auto is_unordered_type = [&](const Token& token) {
      return token.kind == TokenKind::kIdentifier &&
             std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(),
                       token.text) != kUnorderedTypes.end();
    };

    // Pass A: names declared (or aliased) with an unordered type.
    std::set<std::string> unordered_names;
    std::set<std::string> unordered_aliases;
    const auto is_unordered_spelling = [&](const Token& token) {
      return is_unordered_type(token) ||
             (token.kind == TokenKind::kIdentifier &&
              unordered_aliases.count(token.text) != 0);
    };
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      // using Alias = std::unordered_map<...>;
      if (IsIdent(tokens[i], "using") && i + 3 < tokens.size() &&
          tokens[i + 1].kind == TokenKind::kIdentifier &&
          IsPunct(tokens[i + 2], "=")) {
        for (std::size_t j = i + 3;
             j < tokens.size() && j < i + 8 && !IsPunct(tokens[j], ";");
             ++j) {
          if (is_unordered_type(tokens[j])) {
            unordered_aliases.insert(tokens[i + 1].text);
            break;
          }
        }
      }
      if (!is_unordered_spelling(tokens[i])) continue;
      std::size_t j = i + 1;
      if (j < tokens.size() && IsPunct(tokens[j], "<")) {
        const std::size_t after = SkipAngles(tokens, j);
        if (after == j) continue;  // comparison, not a template list
        j = after;
      }
      // Skip declarator decoration: refs, pointers, cv.
      while (j < tokens.size() &&
             (IsPunct(tokens[j], "&") || IsPunct(tokens[j], "*") ||
              IsIdent(tokens[j], "const"))) {
        ++j;
      }
      if (j < tokens.size() &&
          tokens[j].kind == TokenKind::kIdentifier &&
          !(j + 1 < tokens.size() && IsPunct(tokens[j + 1], "("))) {
        unordered_names.insert(tokens[j].text);
      }
    }

    // Pass B: iteration over those names (or over a temporary spelled
    // with the type directly).
    std::set<std::pair<int, std::string>> reported;
    const auto report = [&](int line) {
      if (!reported.insert({line, Describe().name}).second) return;
      Emit(file, Describe(), line,
           "iteration over an unordered container: hash order is not "
           "deterministic across platforms; iterate a sorted copy (or "
           "sort the results) before anything that feeds reports or "
           "goldens",
           out);
    };
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (IsIdent(tokens[i], "for") && i + 1 < tokens.size() &&
          IsPunct(tokens[i + 1], "(")) {
        std::size_t depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < tokens.size(); ++j) {
          if (IsPunct(tokens[j], "(")) ++depth;
          if (IsPunct(tokens[j], ")") && --depth == 0) {
            close = j;
            break;
          }
          if (depth == 1 && colon == 0 && IsPunct(tokens[j], ":")) {
            colon = j;
          }
        }
        if (colon != 0 && close != 0) {  // range-for
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (is_unordered_spelling(tokens[j]) ||
                (tokens[j].kind == TokenKind::kIdentifier &&
                 unordered_names.count(tokens[j].text) != 0)) {
              report(tokens[i].line);
              break;
            }
          }
        }
      }
      // Iterator-style: name.begin() / name.cbegin() / name.rbegin().
      if (tokens[i].kind == TokenKind::kIdentifier &&
          unordered_names.count(tokens[i].text) != 0 &&
          i + 2 < tokens.size() &&
          (IsPunct(tokens[i + 1], ".") || IsPunct(tokens[i + 1], "->")) &&
          (IsIdent(tokens[i + 2], "begin") ||
           IsIdent(tokens[i + 2], "cbegin") ||
           IsIdent(tokens[i + 2], "rbegin"))) {
        report(tokens[i].line);
      }
    }
  }
};

// ---- registry-discipline ---------------------------------------------------
//
// Names enter the process-wide registries only through the *Registrar
// RAII types (util::Registrar) — one audited registration path, so a
// bare SomeRegistry::Global().Register() call in application code is a
// finding. Files that implement a registrar (FooRegistrar::FooRegistrar)
// are exempt: they are the mechanism itself.
class RegistryDisciplineRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "registry-discipline", "registry", Severity::kError,
        "registrations go through the *Registrar RAII types, not bare "
        "Global().Register()/Claim() calls"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    const Tokens& tokens = file.lex.tokens;
    // A file defining FooRegistrar::FooRegistrar is a registrar
    // implementation and may talk to Global() directly.
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (tokens[i].kind == TokenKind::kIdentifier &&
          EndsWith(tokens[i].text, "Registrar") &&
          IsPunct(tokens[i + 1], "::") &&
          tokens[i + 2].text == tokens[i].text) {
        return;
      }
    }
    for (std::size_t i = 0; i + 4 < tokens.size(); ++i) {
      if (IsIdent(tokens[i], "Global") && IsPunct(tokens[i + 1], "(") &&
          IsPunct(tokens[i + 2], ")") &&
          (IsPunct(tokens[i + 3], ".") || IsPunct(tokens[i + 3], "->")) &&
          (IsIdent(tokens[i + 4], "Register") ||
           IsIdent(tokens[i + 4], "Claim"))) {
        Emit(file, Describe(), tokens[i].line,
             "direct Global()." + tokens[i + 4].text +
                 "() call: register names through the *Registrar RAII types",
             out);
      }
    }
  }
};

// ---- naked-new -------------------------------------------------------------
//
// Ownership is smart pointers (or containers); a naked new is either a
// leak, a double-delete waiting to happen, or an intentionally leaked
// Global() singleton — and the last kind must say so in a NOLINT
// justification where the next reader can see it.
class NakedNewRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "naked-new", "memory", Severity::kError,
        "bans naked new expressions: own memory via "
        "std::make_unique/make_shared; intentional singleton leaks "
        "need a justified NOLINT"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    const Tokens& tokens = file.lex.tokens;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (!IsIdent(tokens[i], "new")) continue;
      // `operator new` declarations / member allocation functions.
      if (i > 0 && IsIdent(tokens[i - 1], "operator")) continue;
      Emit(file, Describe(), tokens[i].line,
           "naked new: prefer std::make_unique/std::make_shared (or a "
           "container); an intentional leak needs a justified NOLINT",
           out);
    }
  }
};

// ---- include-hygiene -------------------------------------------------------
//
// Two checks: headers open with `#pragma once` (the project's one guard
// style) before any other code, and a .cpp with a same-named sibling
// header includes it FIRST — the cheap, compiler-free way to keep
// headers self-contained (the include order proves the header brings in
// everything it needs).
class IncludeHygieneRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "include-hygiene", "hygiene", Severity::kError,
        "headers start with #pragma once; a .cpp includes its own "
        "header first (self-contained-header check)"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    const Tokens& tokens = file.lex.tokens;
    if (file.is_header) {
      if (tokens.empty()) return;
      const bool pragma_first =
          tokens.size() >= 3 && IsPunct(tokens[0], "#") &&
          IsIdent(tokens[1], "pragma") && IsIdent(tokens[2], "once");
      if (pragma_first) return;
      const bool ifndef_guard =
          tokens.size() >= 2 && IsPunct(tokens[0], "#") &&
          IsIdent(tokens[1], "ifndef");
      Emit(file, Describe(), tokens[0].line,
           ifndef_guard
               ? std::string(
                     "#ifndef include guard: the project guard style is "
                     "#pragma once")
               : std::string(
                     "header does not start with #pragma once (it must "
                     "precede all other code)"),
           out);
      return;
    }
    if (!file.has_sibling_header) return;
    // First #include of the file.
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
      if (!(IsPunct(tokens[i], "#") && IsIdent(tokens[i + 1], "include"))) {
        continue;
      }
      const Token& operand = tokens[i + 2];
      const bool is_own =
          operand.kind == TokenKind::kString &&
          (operand.text == file.sibling_header ||
           EndsWith(operand.text, "/" + file.sibling_header));
      if (!is_own) {
        Emit(file, Describe(), operand.line,
             "first include must be this file's own header \"" +
                 file.sibling_header +
                 "\" so the header stays self-contained",
             out);
      }
      return;
    }
    Emit(file, Describe(), 1,
         "file never includes its own header \"" + file.sibling_header +
             "\" (self-contained-header check)",
         out);
  }
};

// ---- nolint-justification --------------------------------------------------
//
// The suppression mechanism's own invariant: a NOLINT(rtmlint:...) is a
// claim that a human weighed the rule and overrode it — the reason is
// the evidence, so an empty one suppresses nothing and is itself a
// finding.
class NolintJustificationRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "nolint-justification", "hygiene", Severity::kError,
        "every NOLINT(rtmlint:...) carries a non-empty justification; "
        "unjustified markers suppress nothing"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    for (const Suppression& suppression : file.suppressions) {
      if (!suppression.justification.empty()) continue;
      Emit(file, Describe(), suppression.line,
           "NOLINT without justification: add the reason after the "
           "closing paren, e.g. // NOLINT(rtmlint:rule): why this is "
           "safe",
           out);
    }
  }
};

// ---- hot-path-alloc --------------------------------------------------------
//
// Files whose serving loops carry perfbench's per-layer rates opt in
// with a comment whose trimmed text starts with `rtmlint: hot-path`.
// In a tagged file every allocation spelling — push_back/emplace_back
// member calls, new expressions, make_unique/make_shared, the C
// allocators, and a sized local `std::vector<T> name(args)` inside a
// function body (a fresh buffer per call, often V-sized) — is flagged
// so per-access heap traffic cannot creep back in unnoticed. Advisory
// (warning severity): findings print but never fail the run, because
// amortized growth (arena doubling, reserve-then-append) is legitimate
// and should stay visible rather than be baselined or NOLINTed away.
class HotPathAllocRule final : public Rule {
 public:
  const RuleInfo& Describe() const noexcept override {
    static const RuleInfo info{
        "hot-path-alloc", "performance", Severity::kWarning,
        "advisory: flags push_back/emplace_back/heap allocation and "
        "sized local vectors in files tagged with a `rtmlint: hot-path` "
        "comment"};
    return info;
  }

  void Check(const SourceFile& file,
             std::vector<Finding>* out) const override {
    if (!IsTagged(file)) return;
    static constexpr std::array<std::string_view, 2> kGrowthCalls = {
        "push_back", "emplace_back"};
    static constexpr std::array<std::string_view, 5> kAllocCalls = {
        "make_unique", "make_shared", "malloc", "calloc", "realloc"};
    const Tokens& tokens = file.lex.tokens;
    // Brace stack: true for a function-body (or nested) scope, so a
    // namespace-scope `std::vector<T> Make(int n);` declaration is not
    // mistaken for a sized local.
    std::vector<bool> body_scopes;
    std::size_t body_depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& token = tokens[i];
      if (IsPunct(token, "{")) {
        const bool body =
            body_depth > 0 || (i > 0 && OpensBody(tokens[i - 1]));
        body_scopes.push_back(body);
        if (body) ++body_depth;
        continue;
      }
      if (IsPunct(token, "}")) {
        if (!body_scopes.empty()) {
          if (body_scopes.back()) --body_depth;
          body_scopes.pop_back();
        }
        continue;
      }
      if (token.kind != TokenKind::kIdentifier) continue;
      if (body_depth > 0 && IsSizedLocalVector(tokens, i)) {
        Emit(file, Describe(), token.line,
             "sized local std::vector in a hot-path file: a fresh buffer "
             "per call; reuse per-object scratch and reset what was "
             "touched",
             out);
        continue;
      }
      const bool prev_member =
          i > 0 && (IsPunct(tokens[i - 1], ".") ||
                    IsPunct(tokens[i - 1], "->"));
      if (prev_member &&
          std::find(kGrowthCalls.begin(), kGrowthCalls.end(), token.text) !=
              kGrowthCalls.end()) {
        Emit(file, Describe(), token.line,
             token.text +
                 "() in a hot-path file: growth can reallocate "
                 "per access; reserve up front or reuse arena storage",
             out);
        continue;
      }
      if (token.text == "new") {
        if (i > 0 && IsIdent(tokens[i - 1], "operator")) continue;
        Emit(file, Describe(), token.line,
             "new expression in a hot-path file: heap allocation on the "
             "serving path; hoist the storage out of the loop",
             out);
        continue;
      }
      if (!prev_member &&
          std::find(kAllocCalls.begin(), kAllocCalls.end(), token.text) !=
              kAllocCalls.end()) {
        Emit(file, Describe(), token.line,
             token.text +
                 " in a hot-path file: heap allocation on the serving "
                 "path; hoist the storage out of the loop",
             out);
      }
    }
  }

 private:
  /// True when a `{` after `prev` opens a function body: after a
  /// parameter list or its qualifiers, or after a brace-initialized
  /// member at the end of a constructor's initializer list.
  [[nodiscard]] static bool OpensBody(const Token& prev) {
    return IsPunct(prev, ")") || IsPunct(prev, "}") ||
           IsIdent(prev, "const") || IsIdent(prev, "noexcept") ||
           IsIdent(prev, "override") || IsIdent(prev, "mutable");
  }

  /// True at `std::vector<...> name(args)` with at least one argument,
  /// `i` pointing at `std`.
  [[nodiscard]] static bool IsSizedLocalVector(const Tokens& tokens,
                                               std::size_t i) {
    if (!IsIdent(tokens[i], "std") || i + 3 >= tokens.size() ||
        !IsPunct(tokens[i + 1], "::") || !IsIdent(tokens[i + 2], "vector") ||
        !IsPunct(tokens[i + 3], "<")) {
      return false;
    }
    const std::size_t after = SkipAngles(tokens, i + 3);
    return after != i + 3 && after + 2 < tokens.size() &&
           tokens[after].kind == TokenKind::kIdentifier &&
           IsPunct(tokens[after + 1], "(") &&
           !IsPunct(tokens[after + 2], ")");
  }

  /// True when any comment's trimmed text starts with the tag. Matching
  /// at the start keeps prose ABOUT the tag (like this rule's own doc
  /// comment) from opting a file in.
  [[nodiscard]] static bool IsTagged(const SourceFile& file) {
    for (const Comment& comment : file.lex.comments) {
      if (util::StartsWith(util::Trim(comment.text), "rtmlint: hot-path")) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

void RegisterBuiltinRules(RuleRegistry& registry) {
  const auto add = [&registry](auto make) {
    using RuleType = decltype(make());
    const std::shared_ptr<const Rule> rule = std::make_shared<const RuleType>();
    registry.Register(rule->Describe().name, [rule] { return rule; });
  };
  add([] { return DeterminismRngRule(); });
  add([] { return UnorderedIterationRule(); });
  add([] { return RegistryDisciplineRule(); });
  add([] { return NakedNewRule(); });
  add([] { return HotPathAllocRule(); });
  add([] { return IncludeHygieneRule(); });
  add([] { return NolintJustificationRule(); });
}

}  // namespace rtmp::rtmlint
