// rtmlint: the scanner's tricky-lexing guarantees, per-rule firing and
// non-firing snippets, NOLINT suppression semantics, baseline
// add/remove behavior and the --json round-trip through util::json.
//
// Every snippet lives in a string literal, which doubles as a live
// demonstration of the scanner's core promise: when rtmlint_self_check
// scans THIS file, none of the banned spellings below fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rtmlint/baseline.h"
#include "rtmlint/driver.h"
#include "rtmlint/lexer.h"
#include "rtmlint/rules.h"
#include "util/json.h"

namespace rtmp::rtmlint {
namespace {

// ---- helpers ---------------------------------------------------------------

/// Lints one in-memory snippet through a fresh registry with the
/// built-in rules.
std::vector<Finding> Lint(std::string path, std::string_view content,
                          std::vector<std::string> rules = {}) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  const SourceFile file = SourceFile::FromString(std::move(path), content);
  return LintSource(file, registry, rules);
}

/// The findings for `rule` that would fail a run (Status::kNew).
std::vector<Finding> NewFindings(const std::vector<Finding>& findings,
                                 std::string_view rule) {
  std::vector<Finding> out;
  for (const Finding& finding : findings) {
    if (finding.rule == rule && finding.status == Finding::Status::kNew) {
      out.push_back(finding);
    }
  }
  return out;
}

int CountRule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(NewFindings(findings, rule).size());
}

Finding MakeFinding(std::string file, int line, std::string rule,
                    std::string context,
                    Finding::Status status = Finding::Status::kNew) {
  Finding finding;
  finding.file = std::move(file);
  finding.line = line;
  finding.rule = std::move(rule);
  finding.context = std::move(context);
  finding.status = status;
  return finding;
}

// ---- lexer -----------------------------------------------------------------

TEST(RtmlintLexerTest, CommentsProduceNoTokens) {
  const LexedSource lex = Lex(
      "// std::mt19937 in prose\n"
      "/* new mt19937 across\n"
      "   two lines */\n"
      "int x;\n");
  for (const Token& token : lex.tokens) {
    EXPECT_NE(token.text, "mt19937");
    EXPECT_NE(token.text, "new");
  }
  ASSERT_EQ(lex.comments.size(), 2u);
  EXPECT_EQ(lex.comments[0].line, 1);
  EXPECT_EQ(lex.comments[1].line, 2);
  // The code after the block comment keeps its real line number.
  ASSERT_FALSE(lex.tokens.empty());
  EXPECT_EQ(lex.tokens[0].text, "int");
  EXPECT_EQ(lex.tokens[0].line, 4);
}

TEST(RtmlintLexerTest, RawStringsAreOneTokenWithCorrectLineTracking) {
  const LexedSource lex = Lex(
      "auto s = R\"lint(std::mt19937 rng; // new\nline two)lint\";\n"
      "int after;\n");
  const auto is_string = [](const Token& t) {
    return t.kind == TokenKind::kString;
  };
  ASSERT_EQ(std::count_if(lex.tokens.begin(), lex.tokens.end(), is_string),
            1);
  const auto str =
      std::find_if(lex.tokens.begin(), lex.tokens.end(), is_string);
  EXPECT_NE(str->text.find("mt19937"), std::string::npos);
  // No identifier token leaked out of the raw string's contents, and
  // the raw string's embedded newline advanced the line counter.
  for (const Token& token : lex.tokens) {
    if (token.kind == TokenKind::kIdentifier) {
      EXPECT_NE(token.text, "mt19937");
      EXPECT_NE(token.text, "rng");
    }
  }
  const auto after = std::find_if(
      lex.tokens.begin(), lex.tokens.end(),
      [](const Token& t) { return t.text == "after"; });
  ASSERT_NE(after, lex.tokens.end());
  EXPECT_EQ(after->line, 3);
}

TEST(RtmlintLexerTest, LineContinuationSplicesTokensAndKeepsLineNumbers) {
  // "mt19\<newline>937" must come out as the single identifier mt19937;
  // tokens after the splice get the post-splice physical line.
  const LexedSource lex = Lex("int mt19\\\n937 = 0;\nint below;\n");
  const auto spliced = std::find_if(
      lex.tokens.begin(), lex.tokens.end(),
      [](const Token& t) { return t.text == "mt19937"; });
  ASSERT_NE(spliced, lex.tokens.end());
  EXPECT_EQ(spliced->line, 1);
  const auto below = std::find_if(
      lex.tokens.begin(), lex.tokens.end(),
      [](const Token& t) { return t.text == "below"; });
  ASSERT_NE(below, lex.tokens.end());
  EXPECT_EQ(below->line, 3);
}

TEST(RtmlintLexerTest, CharLiteralsAndDigitSeparatorsDontBreakScanning) {
  const LexedSource lex =
      Lex("char q = '\\''; long big = 1'000'000; char s = '\"';\n"
          "int tail;\n");
  const auto number = std::find_if(
      lex.tokens.begin(), lex.tokens.end(),
      [](const Token& t) { return t.kind == TokenKind::kNumber; });
  ASSERT_NE(number, lex.tokens.end());
  EXPECT_EQ(number->text, "1'000'000");
  const auto tail = std::find_if(
      lex.tokens.begin(), lex.tokens.end(),
      [](const Token& t) { return t.text == "tail"; });
  ASSERT_NE(tail, lex.tokens.end());
  EXPECT_EQ(tail->line, 2);
}

TEST(RtmlintLexerTest, IncludeOperandsBecomeHeaderNameTokens) {
  const LexedSource lex =
      Lex("#include <vector>\n#include \"core/placement.h\"\nint x = a<b;\n");
  ASSERT_GE(lex.tokens.size(), 6u);
  EXPECT_EQ(lex.tokens[2].kind, TokenKind::kHeaderName);
  EXPECT_EQ(lex.tokens[2].text, "vector");
  EXPECT_TRUE(lex.tokens[2].preprocessor);
  EXPECT_EQ(lex.tokens[5].kind, TokenKind::kString);
  EXPECT_EQ(lex.tokens[5].text, "core/placement.h");
  // Outside an #include, < stays ordinary punctuation.
  const auto less = std::find_if(
      lex.tokens.begin(), lex.tokens.end(), [](const Token& t) {
        return t.kind == TokenKind::kPunct && t.text == "<";
      });
  EXPECT_NE(less, lex.tokens.end());
}

TEST(RtmlintLexerTest, SuppressionExtraction) {
  const LexedSource lex = Lex(
      "int a;  // NOLINT(rtmlint:naked-new): leaked singleton.\n"
      "// NOLINTNEXTLINE(rtmlint:determinism-rng, rtmlint:*): bench.\n"
      "int b;\n"
      "int c;  // NOLINT(cert-msc50-cpp): clang-tidy's marker, not ours.\n"
      "// NOLINTNEXTLINE(rtmlint:unordered-iteration)\n"
      "int d;\n");
  const std::vector<Suppression> suppressions =
      ExtractSuppressions(lex.comments);
  ASSERT_EQ(suppressions.size(), 3u);
  EXPECT_EQ(suppressions[0].line, 1);
  ASSERT_EQ(suppressions[0].rules.size(), 1u);
  EXPECT_EQ(suppressions[0].rules[0], "naked-new");
  EXPECT_EQ(suppressions[0].justification, "leaked singleton.");
  // NOLINTNEXTLINE markers cover the following line.
  EXPECT_EQ(suppressions[1].line, 3);
  ASSERT_EQ(suppressions[1].rules.size(), 2u);
  EXPECT_EQ(suppressions[1].rules[1], "*");
  // The unjustified marker is still extracted (so the
  // nolint-justification rule can see it) but carries no reason.
  EXPECT_EQ(suppressions[2].line, 6);
  EXPECT_TRUE(suppressions[2].justification.empty());
}

// ---- determinism-rng -------------------------------------------------------

TEST(RtmlintDeterminismRngTest, FiresOnStdEnginesAndRand) {
  const auto findings = Lint("src/demo.cpp",
                             "#include <random>\n"
                             "int Draw() {\n"
                             "  std::mt19937 rng(42);\n"
                             "  std::srand(7);\n"
                             "  return std::rand();\n"
                             "}\n");
  const auto rng = NewFindings(findings, "determinism-rng");
  ASSERT_EQ(rng.size(), 3u);
  EXPECT_EQ(rng[0].line, 3);
  EXPECT_NE(rng[0].message.find("util::Rng"), std::string::npos);
  EXPECT_EQ(rng[1].line, 4);
  EXPECT_EQ(rng[2].line, 5);
}

TEST(RtmlintDeterminismRngTest, FiresOnRawClockReads) {
  const auto findings =
      Lint("src/demo.cpp",
           "double Now() {\n"
           "  time(nullptr);\n"
           "  return std::chrono::steady_clock::now().time_since_epoch()\n"
           "      .count();\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "determinism-rng"), 2);
}

TEST(RtmlintDeterminismRngTest, QuietOnUtilRngCommentsStringsAndMembers) {
  const auto findings =
      Lint("src/demo.cpp",
           "#include \"util/rng.h\"\n"
           "// prose: std::mt19937 and time() would fire outside comments\n"
           "int Draw(Stats& stats) {\n"
           "  util::Rng rng(42);\n"
           "  const char* doc = \"mt19937 rand() steady_clock\";\n"
           "  stats.time();  // member named like the libc call\n"
           "  return rng.NextInt(10) + (doc != nullptr ? 1 : 0);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "determinism-rng"), 0);
}

TEST(RtmlintDeterminismRngTest, RunTimedImplementationIsWhitelistedForClocks) {
  const std::string body =
      "double Timed() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch()\n"
      "      .count();\n"
      "}\n";
  EXPECT_EQ(CountRule(Lint("src/core/strategy_registry.cpp", body),
                      "determinism-rng"),
            0);
  EXPECT_EQ(CountRule(Lint("src/core/other.cpp", body), "determinism-rng"),
            1);
}

// ---- unordered-iteration ---------------------------------------------------

TEST(RtmlintUnorderedIterationTest, FiresOnRangeForOverDeclaredName) {
  const auto findings =
      Lint("src/demo.cpp",
           "#include <unordered_map>\n"
           "int Sum(const std::unordered_map<int, int>& table) {\n"
           "  int total = 0;\n"
           "  for (const auto& [key, value] : table) total += value;\n"
           "  return total;\n"
           "}\n");
  const auto unordered = NewFindings(findings, "unordered-iteration");
  ASSERT_EQ(unordered.size(), 1u);
  EXPECT_EQ(unordered[0].line, 4);
}

TEST(RtmlintUnorderedIterationTest, FiresOnIteratorLoopAndAlias) {
  const auto findings =
      Lint("src/demo.cpp",
           "using Index = std::unordered_map<std::string, unsigned>;\n"
           "unsigned First(const Index& index) {\n"
           "  return index.begin()->second;\n"
           "}\n"
           "unsigned Walk(Index index) {\n"
           "  unsigned total = 0;\n"
           "  for (const auto& [name, id] : index) total += id;\n"
           "  return total;\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 2);
}

TEST(RtmlintUnorderedIterationTest, QuietOnLookupsAndOrderedContainers) {
  const auto findings =
      Lint("src/demo.cpp",
           "#include <map>\n"
           "#include <unordered_map>\n"
           "int Demo(const std::map<int, int>& sorted,\n"
           "         const std::unordered_map<int, int>& table) {\n"
           "  int total = 0;\n"
           "  for (const auto& [key, value] : sorted) total += value;\n"
           "  if (table.contains(3)) total += table.at(3);\n"
           "  auto it = table.find(4);  // lookup, not iteration\n"
           "  return total + (it != table.end() ? it->second : 0);\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "unordered-iteration"), 0);
}

// ---- registry-discipline ---------------------------------------------------

TEST(RtmlintRegistryDisciplineTest, FiresOnDirectGlobalRegistration) {
  const auto findings =
      Lint("src/demo.cpp",
           "void Install() {\n"
           "  StrategyRegistry::Global().Register(\"mine\", MakeFactory());\n"
           "  RegistryNamespace::Global().Claim(\"mine\", \"strategy\");\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "registry-discipline"), 2);
}

TEST(RtmlintRegistryDisciplineTest, RegistrarImplementationFilesAreExempt) {
  const auto findings = Lint(
      "src/demo.cpp",
      "FooRegistrar::FooRegistrar(std::string name, Factory factory) {\n"
      "  FooRegistry::Global().Register(std::move(name), "
      "std::move(factory));\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "registry-discipline"), 0);
}

TEST(RtmlintRegistryDisciplineTest, QuietOnNonGlobalRegistration) {
  const auto findings =
      Lint("src/demo.cpp",
           "void Fill(StrategyRegistry& registry) {\n"
           "  registry.Register(\"local\", MakeFactory());\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "registry-discipline"), 0);
}

// ---- naked-new -------------------------------------------------------------

TEST(RtmlintNakedNewTest, FiresOnNewExpressions) {
  const auto findings = Lint("src/demo.cpp",
                             "int* Make() {\n"
                             "  return new int(7);\n"
                             "}\n");
  const auto naked = NewFindings(findings, "naked-new");
  ASSERT_EQ(naked.size(), 1u);
  EXPECT_EQ(naked[0].line, 2);
}

TEST(RtmlintNakedNewTest, QuietOnMakeUniqueAndOperatorNew) {
  const auto findings =
      Lint("src/demo.cpp",
           "#include <memory>\n"
           "void* operator new(std::size_t size);\n"
           "std::unique_ptr<int> Make() {\n"
           "  return std::make_unique<int>(7);  // \"new\" only in prose\n"
           "}\n");
  EXPECT_EQ(CountRule(findings, "naked-new"), 0);
}

// ---- hot-path-alloc --------------------------------------------------------

TEST(RtmlintHotPathAllocTest, FiresOnAllocationsInTaggedFiles) {
  const auto findings = Lint(
      "src/demo.cpp",
      "// rtmlint: hot-path — serving loop, keep allocation-free.\n"
      "void Serve(std::vector<int>& out, Ring& ring) {\n"
      "  out.push_back(1);\n"
      "  ring.items()->emplace_back(2);\n"
      "  int* raw = static_cast<int*>(malloc(4));\n"
      "  auto owned = std::make_unique<int>(3);\n"
      "}\n");
  const auto alloc = NewFindings(findings, "hot-path-alloc");
  ASSERT_EQ(alloc.size(), 4u);
  EXPECT_EQ(alloc[0].line, 3);
  EXPECT_NE(alloc[0].message.find("push_back"), std::string::npos);
  EXPECT_EQ(alloc[1].line, 4);
  EXPECT_EQ(alloc[2].line, 5);
  EXPECT_EQ(alloc[3].line, 6);
  for (const Finding& finding : alloc) {
    EXPECT_EQ(finding.severity, Severity::kWarning);
  }
}

TEST(RtmlintHotPathAllocTest, NewExpressionsCountAsHeapAllocation) {
  const auto findings =
      Lint("src/demo.cpp",
           "// rtmlint: hot-path\n"
           "void* operator new(std::size_t size);\n"
           "int* Make() { return new int(7); }\n");
  const auto alloc = NewFindings(findings, "hot-path-alloc");
  // The operator-new declaration is exempt, the expression is not.
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_EQ(alloc[0].line, 3);
}

TEST(RtmlintHotPathAllocTest, QuietWithoutTheTag) {
  // Same allocations, no tag: the rule stays silent. A comment that
  // merely MENTIONS the tag mid-sentence does not opt the file in, and
  // neither does the spelling inside a string literal.
  const auto findings = Lint(
      "src/demo.cpp",
      "// See hot-path-alloc: files tagged rtmlint: hot-path opt in.\n"
      "const char* kTag = \"rtmlint: hot-path\";\n"
      "void Serve(std::vector<int>& out) {\n"
      "  out.push_back(1);\n"
      "  out.emplace_back(2);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0);
}

TEST(RtmlintHotPathAllocTest, SuppressibleAndMemberAllocCallsExempt) {
  const auto findings = Lint(
      "src/demo.cpp",
      "// rtmlint: hot-path\n"
      "void Serve(std::vector<int>& out, Pool& pool) {\n"
      "  // NOLINTNEXTLINE(rtmlint:hot-path-alloc): amortized doubling.\n"
      "  out.push_back(1);\n"
      "  pool.malloc(8);  // member named like the C allocator\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0);
  int suppressed = 0;
  for (const Finding& finding : findings) {
    if (finding.rule == "hot-path-alloc" &&
        finding.status == Finding::Status::kSuppressed) {
      ++suppressed;
    }
  }
  EXPECT_EQ(suppressed, 1);
}

TEST(RtmlintHotPathAllocTest, ArenaIdiomIsNotFlagged) {
  // The observability layer's preallocated-arena idiom — resize up
  // front, indexed writes on the hot path — must stay finding-free;
  // this is what src/obs/ relies on (see ObsHotFilesTest below).
  const auto findings = Lint(
      "src/demo.cpp",
      "// rtmlint: hot-path\n"
      "void Record(std::vector<Event>& events, std::size_t& size,\n"
      "            const Event& event) {\n"
      "  if (size >= events.size()) return;\n"
      "  events[size] = event;\n"
      "  ++size;\n"
      "}\n"
      "void Setup(std::vector<Event>& events) { events.resize(1024); }\n");
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0);
}

TEST(RtmlintHotPathAllocTest, FiresOnSizedLocalVectors) {
  const auto findings = Lint(
      "src/demo.cpp",
      "// rtmlint: hot-path\n"
      "void Refine(const Seq& seq) {\n"
      "  std::vector<std::uint64_t> freq(seq.num_variables(), 0);\n"
      "  if (seq.empty()) {\n"
      "    std::vector<std::vector<int>> lists(4);\n"
      "  }\n"
      "  const auto fill = [&](std::size_t n) {\n"
      "    std::vector<bool> seen(n, false);\n"
      "  };\n"
      "}\n"
      "Engine::Engine(Config c) : config_(c), slots_{} {\n"
      "  std::vector<int> warm(config_.size());\n"
      "}\n");
  const auto alloc = NewFindings(findings, "hot-path-alloc");
  ASSERT_EQ(alloc.size(), 4u);
  EXPECT_EQ(alloc[0].line, 3);
  EXPECT_NE(alloc[0].message.find("sized local std::vector"),
            std::string::npos);
  EXPECT_EQ(alloc[1].line, 5);
  EXPECT_EQ(alloc[2].line, 8);
  EXPECT_EQ(alloc[3].line, 12);
}

TEST(RtmlintHotPathAllocTest, DeclarationsAndUnsizedVectorsAreNotSizedLocals) {
  // Functions returning vectors (namespace scope and class members),
  // empty or brace-initialized locals, references to scratch and
  // temporaries are not sized locals; neither is anything untagged.
  const auto findings = Lint(
      "src/demo.cpp",
      "// rtmlint: hot-path\n"
      "std::vector<int> Make(std::size_t n);\n"
      "std::vector<int> Build(const Seq& seq, int k) {\n"
      "  std::vector<int> empty;\n"
      "  std::vector<int> most_vexing();\n"
      "  std::vector<int> listed{1, 2};\n"
      "  std::vector<int>& scratch = scratch_;\n"
      "  return std::vector<int>(seq.size());\n"
      "}\n"
      "class Engine {\n"
      "  std::vector<int> Hot(std::size_t top_k) const;\n"
      "};\n");
  EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0);
  const auto untagged =
      Lint("src/demo.cpp",
           "void F(std::size_t n) { std::vector<int> freq(n, 0); }\n");
  EXPECT_EQ(CountRule(untagged, "hot-path-alloc"), 0);
}

/// Reads a repo source file; RTMPLACE_SOURCE_DIR is stamped in by CMake.
std::string ReadRepoFile(const std::string& relative) {
  const std::string path = std::string(RTMPLACE_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(RtmlintObsHotFilesTest, ObsFilesAreTaggedAndAllocationFree) {
  // src/obs/ records on engine hot paths: each file must opt into
  // hot-path-alloc via the tag AND come back with zero findings — the
  // arena/intern idiom keeps the recording paths allocation-free.
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  for (const char* relative :
       {"src/obs/metrics.h", "src/obs/metrics.cpp",
        "src/obs/trace_recorder.h", "src/obs/trace_recorder.cpp"}) {
    const std::string content = ReadRepoFile(relative);
    EXPECT_NE(content.find("rtmlint: hot-path"), std::string::npos)
        << relative << " lost its hot-path tag";
    const SourceFile file = SourceFile::FromString(relative, content);
    const std::vector<std::string> rules = {"hot-path-alloc"};
    const auto findings = LintSource(file, registry, rules);
    EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0)
        << relative << " allocates on the hot path";
  }
}

TEST(RtmlintReseedHotFilesTest, ReseedFilesAreTaggedAndAllocationFree) {
  // The online re-seed's scratch (core/placement_workspace.*) and the
  // migration estimate and plan run on every phase change: each file
  // opts into hot-path-alloc and keeps zero findings by resizing up
  // front and writing by index.
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  for (const char* relative :
       {"src/core/placement_workspace.h", "src/core/placement_workspace.cpp",
        "src/online/migration.cpp"}) {
    const std::string content = ReadRepoFile(relative);
    EXPECT_NE(content.find("rtmlint: hot-path"), std::string::npos)
        << relative << " lost its hot-path tag";
    const SourceFile file = SourceFile::FromString(relative, content);
    const std::vector<std::string> rules = {"hot-path-alloc"};
    const auto findings = LintSource(file, registry, rules);
    EXPECT_EQ(CountRule(findings, "hot-path-alloc"), 0)
        << relative << " allocates on the hot path";
  }
}

TEST(RtmlintHotPathAllocTest, AdvisoryFindingsDoNotFailTheRun) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/hot.cpp",
      "// rtmlint: hot-path\n"
      "void Serve(std::vector<int>& out) { out.push_back(1); }\n"));
  const LintReport advisory = RunLint(files, registry, Baseline{});
  ASSERT_EQ(advisory.CountWithStatus(Finding::Status::kNew), 1u);
  EXPECT_TRUE(advisory.Clean());  // warnings are advisory
  // An error-severity finding still gates.
  files.push_back(
      SourceFile::FromString("src/bad.cpp", "int* p = new int(7);\n"));
  const LintReport gated = RunLint(files, registry, Baseline{});
  EXPECT_FALSE(gated.Clean());
}

// ---- include-hygiene -------------------------------------------------------

TEST(RtmlintIncludeHygieneTest, HeaderMustStartWithPragmaOnce) {
  EXPECT_EQ(CountRule(Lint("src/good.h", "#pragma once\nint x;\n"),
                      "include-hygiene"),
            0);
  const auto guarded = Lint(
      "src/bad.h", "#ifndef BAD_H\n#define BAD_H\nint x;\n#endif\n");
  const auto findings = NewFindings(guarded, "include-hygiene");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("#pragma once"), std::string::npos);
  EXPECT_EQ(CountRule(Lint("src/code.h", "int x;\n"), "include-hygiene"), 1);
}

TEST(RtmlintIncludeHygieneTest, CppIncludesItsOwnHeaderFirst) {
  const auto lint_cpp = [](std::string_view content) {
    RuleRegistry registry;
    RegisterBuiltinRules(registry);
    SourceFile file = SourceFile::FromString("src/core/demo.cpp", content);
    file.has_sibling_header = true;
    file.sibling_header = "demo.h";
    return LintSource(file, registry);
  };
  EXPECT_EQ(CountRule(lint_cpp("#include \"core/demo.h\"\n"
                               "#include <vector>\n"),
                      "include-hygiene"),
            0);
  EXPECT_EQ(CountRule(lint_cpp("#include \"demo.h\"\nint x;\n"),
                      "include-hygiene"),
            0);
  EXPECT_EQ(CountRule(lint_cpp("#include <vector>\n"
                               "#include \"core/demo.h\"\n"),
                      "include-hygiene"),
            1);
  EXPECT_EQ(CountRule(lint_cpp("#include <vector>\nint x;\n"),
                      "include-hygiene"),
            1);
  // Without a sibling header there is nothing to require.
  EXPECT_EQ(CountRule(Lint("src/main.cpp", "#include <vector>\nint x;\n"),
                      "include-hygiene"),
            0);
}

// ---- NOLINT semantics ------------------------------------------------------

TEST(RtmlintSuppressionTest, JustifiedNolintSuppressesWithNote) {
  const auto findings =
      Lint("src/demo.cpp",
           "// NOLINTNEXTLINE(rtmlint:naked-new): leaked singleton.\n"
           "int* p = new int(7);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "naked-new");
  EXPECT_EQ(findings[0].status, Finding::Status::kSuppressed);
  EXPECT_EQ(findings[0].note, "leaked singleton.");
  EXPECT_EQ(findings[0].context, "int* p = new int(7);");
}

TEST(RtmlintSuppressionTest, RuleMismatchDoesNotSuppress) {
  const auto findings = Lint(
      "src/demo.cpp",
      "// NOLINTNEXTLINE(rtmlint:unordered-iteration): wrong rule.\n"
      "int* p = new int(7);\n");
  EXPECT_EQ(CountRule(findings, "naked-new"), 1);
}

TEST(RtmlintSuppressionTest, WildcardSuppressesEveryRuleOnTheLine) {
  const auto findings =
      Lint("src/demo.cpp",
           "// NOLINTNEXTLINE(rtmlint:*): demo fixture line.\n"
           "int* p = new int(std::rand());\n");
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.status, Finding::Status::kSuppressed)
        << finding.rule << " at line " << finding.line;
  }
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RtmlintSuppressionTest, UnjustifiedNolintSuppressesNothingAndFires) {
  const auto findings =
      Lint("src/demo.cpp",
           "// NOLINTNEXTLINE(rtmlint:naked-new)\n"
           "int* p = new int(7);\n");
  // The underlying finding stays new AND the empty justification is its
  // own finding.
  EXPECT_EQ(CountRule(findings, "naked-new"), 1);
  EXPECT_EQ(CountRule(findings, "nolint-justification"), 1);
}

TEST(RtmlintSuppressionTest, JustificationRuleItselfCannotBeSuppressed) {
  // A wildcard NOLINT on the same line must not silence the
  // justification check for an empty marker.
  const auto findings = Lint(
      "src/demo.cpp",
      "int* p = new int(7);  // NOLINT(rtmlint:*)\n");
  EXPECT_EQ(CountRule(findings, "nolint-justification"), 1);
}

// ---- rule registry ---------------------------------------------------------

TEST(RtmlintRegistryTest, BuiltinsAreRegisteredSortedAndDescribed) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  const std::vector<std::string> names = registry.Names();
  const std::vector<std::string> expected = {
      "determinism-rng",   "hot-path-alloc",
      "include-hygiene",   "naked-new",
      "nolint-justification", "registry-discipline",
      "unordered-iteration"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(registry.size(), expected.size());
  EXPECT_TRUE(registry.Contains("Naked-New"));  // lookups normalize case
  const auto info = registry.Describe("determinism-rng");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->category, "determinism");
  EXPECT_EQ(info->severity, Severity::kError);
  EXPECT_FALSE(info->summary.empty());
  const auto advisory = registry.Describe("hot-path-alloc");
  ASSERT_TRUE(advisory.has_value());
  EXPECT_EQ(advisory->category, "performance");
  EXPECT_EQ(advisory->severity, Severity::kWarning);
  // Lazy construction caches one instance per rule.
  EXPECT_EQ(registry.Find("naked-new").get(),
            registry.Find("naked-new").get());
  EXPECT_EQ(registry.Find("no-such-rule"), nullptr);
}

TEST(RtmlintRegistryTest, DuplicateAndCrossCategoryNamesThrow) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  const auto factory = [&registry]() -> std::shared_ptr<const Rule> {
    return registry.Find("naked-new");
  };
  // A taken name is a duplicate whatever category the newcomer's
  // RuleInfo carries: rule names are unique across categories.
  EXPECT_THROW(registry.Register("naked-new", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("Naked-New", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("bad name", factory),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 7u);
}

TEST(RtmlintRegistryTest, RuleFilterRunsOnlyNamedRulesAndValidates) {
  const std::string snippet =
      "int* p = new int(std::rand());\n";  // two rules would fire
  const auto only_new =
      Lint("src/demo.cpp", snippet, {"naked-new"});
  EXPECT_EQ(only_new.size(), 1u);
  EXPECT_EQ(CountRule(only_new, "naked-new"), 1);
  EXPECT_THROW(Lint("src/demo.cpp", snippet, {"no-such-rule"}),
               std::invalid_argument);
}

// ---- baseline --------------------------------------------------------------

TEST(RtmlintBaselineTest, ParseAndSerializeRoundTrip) {
  const Baseline parsed = Baseline::Parse(
      "# comment line\n"
      "\n"
      "naked-new|src/a.cpp|int* p = new int;|legacy allocation.\n"
      "determinism-rng|src/b.cpp|std::mt19937 rng;|pre-rule code.\n");
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].rule, "naked-new");
  EXPECT_EQ(parsed.entries[0].context, "int* p = new int;");
  EXPECT_EQ(parsed.entries[0].reason, "legacy allocation.");
  const Baseline reparsed = Baseline::Parse(parsed.Serialize());
  ASSERT_EQ(reparsed.entries.size(), 2u);
  EXPECT_EQ(reparsed.entries[1].rule, parsed.entries[1].rule);
  EXPECT_EQ(reparsed.entries[1].reason, parsed.entries[1].reason);
}

TEST(RtmlintBaselineTest, MalformedLinesAndEmptyReasonsThrow) {
  EXPECT_THROW(Baseline::Parse("only|three|fields\n"),
               std::invalid_argument);
  EXPECT_THROW(Baseline::Parse("rule|file|context|\n"),
               std::invalid_argument);
  EXPECT_THROW(Baseline::Parse("rule|file|context|   \n"),
               std::invalid_argument);
}

TEST(RtmlintBaselineTest, ApplyStampsMatchesCountedAndReportsStale) {
  Baseline baseline;
  baseline.entries.push_back(
      {"naked-new", "src/a.cpp", "int* p = new int;", "legacy."});
  baseline.entries.push_back(
      {"naked-new", "src/gone.cpp", "int* q = new int;", "was fixed."});
  std::vector<Finding> findings;
  // Two identical findings, one matching entry: counted matching
  // baselines only the first.
  findings.push_back(
      MakeFinding("src/a.cpp", 3, "naked-new", "int* p = new int;"));
  findings.push_back(
      MakeFinding("src/a.cpp", 9, "naked-new", "int* p = new int;"));
  const BaselineMatchResult result =
      ApplyBaseline(std::move(findings), baseline);
  EXPECT_EQ(result.findings[0].status, Finding::Status::kBaselined);
  EXPECT_EQ(result.findings[0].note, "legacy.");
  EXPECT_EQ(result.findings[1].status, Finding::Status::kNew);
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].file, "src/gone.cpp");
}

TEST(RtmlintBaselineTest, SuppressedFindingsDoNotConsumeEntries) {
  Baseline baseline;
  baseline.entries.push_back(
      {"naked-new", "src/a.cpp", "int* p = new int;", "legacy."});
  std::vector<Finding> findings;
  findings.push_back(MakeFinding("src/a.cpp", 3, "naked-new",
                                 "int* p = new int;",
                                 Finding::Status::kSuppressed));
  const BaselineMatchResult result =
      ApplyBaseline(std::move(findings), baseline);
  EXPECT_EQ(result.findings[0].status, Finding::Status::kSuppressed);
  ASSERT_EQ(result.stale.size(), 1u);  // the entry matched nothing
}

TEST(RtmlintBaselineTest, MakeBaselineAddsRemovesAndCarriesReasons) {
  Baseline previous;
  previous.entries.push_back(
      {"naked-new", "src/a.cpp", "int* p = new int;", "curated reason."});
  previous.entries.push_back(
      {"naked-new", "src/fixed.cpp", "int* q = new int;", "obsolete."});
  std::vector<Finding> findings;
  findings.push_back(
      MakeFinding("src/a.cpp", 3, "naked-new", "int* p = new int;"));
  findings.push_back(
      MakeFinding("src/b.cpp", 5, "determinism-rng", "std::mt19937 rng;"));
  findings.push_back(MakeFinding("src/c.cpp", 1, "naked-new",
                                 "int* s = new int;",
                                 Finding::Status::kSuppressed));
  const Baseline next = MakeBaseline(findings, previous);
  // The fixed entry is dropped, the surviving one keeps its curated
  // reason, the new finding gets the default, suppressed ones never
  // enter the baseline.
  ASSERT_EQ(next.entries.size(), 2u);
  const auto find = [&next](std::string_view file) {
    for (const BaselineEntry& entry : next.entries) {
      if (entry.file == file) return entry;
    }
    return BaselineEntry{};
  };
  EXPECT_EQ(find("src/a.cpp").reason, "curated reason.");
  // The stamped placeholder must not itself read as a TODO marker —
  // lint hygiene over the baseline file would flag it.
  EXPECT_EQ(find("src/b.cpp").reason,
            "grandfathered by --write-baseline; replace with a specific "
            "justification");
  EXPECT_EQ(find("src/b.cpp").reason.find("TODO"), std::string::npos);
  EXPECT_TRUE(find("src/c.cpp").rule.empty());
}

// ---- report pipeline and --json --------------------------------------------

TEST(RtmlintReportTest, FindingsSortByLineThenRule) {
  const auto findings = Lint("src/demo.cpp",
                             "int* a = new int(std::rand());\n"
                             "int* b = new int(7);\n");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].rule, "determinism-rng");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].rule, "naked-new");
  EXPECT_EQ(findings[1].line, 1);
  EXPECT_EQ(findings[2].line, 2);
}

TEST(RtmlintReportTest, RunLintAggregatesAndFormatsHuman) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  std::vector<SourceFile> files;
  files.push_back(
      SourceFile::FromString("src/demo.cpp", "int* p = new int(7);\n"));
  files.push_back(SourceFile::FromString(
      "src/ok.cpp",
      "// NOLINTNEXTLINE(rtmlint:naked-new): fixture.\n"
      "int* q = new int(8);\n"));
  const LintReport report = RunLint(files, registry, Baseline{});
  EXPECT_EQ(report.files_scanned, 2u);
  EXPECT_EQ(report.CountWithStatus(Finding::Status::kNew), 1u);
  EXPECT_EQ(report.CountWithStatus(Finding::Status::kSuppressed), 1u);
  EXPECT_FALSE(report.Clean());
  const std::string human = FormatHuman(report);
  EXPECT_NE(human.find("src/demo.cpp:1: error: [naked-new]"),
            std::string::npos);
  EXPECT_NE(human.find("int* p = new int(7);"), std::string::npos);
  // Suppressed findings do not get their own report lines.
  EXPECT_EQ(human.find("src/ok.cpp:2"), std::string::npos);
}

TEST(RtmlintReportTest, JsonReportRoundTripsThroughUtilJson) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(
      "src/demo.cpp", "int* p = new \"quoted \\\"context\\\"\"[0];\n"));
  Baseline baseline;
  baseline.entries.push_back(
      {"determinism-rng", "src/gone.cpp", "std::mt19937 r;", "stale."});
  const LintReport report = RunLint(files, registry, baseline);
  const util::JsonValue doc =
      util::JsonValue::Parse(WriteJsonReport(report));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.At("tool").AsString(), "rtmlint");
  EXPECT_EQ(doc.At("schema_version").AsUInt(), 1u);
  EXPECT_EQ(doc.At("files_scanned").AsUInt(), 1u);
  EXPECT_EQ(doc.At("counts").At("new").AsUInt(), 1u);
  EXPECT_EQ(doc.At("counts").At("stale_baseline").AsUInt(), 1u);
  const auto& findings = doc.At("findings").Items();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].At("file").AsString(), "src/demo.cpp");
  EXPECT_EQ(findings[0].At("line").AsUInt(), 1u);
  EXPECT_EQ(findings[0].At("rule").AsString(), "naked-new");
  EXPECT_EQ(findings[0].At("severity").AsString(), "error");
  EXPECT_EQ(findings[0].At("status").AsString(), "new");
  // The context embeds quotes and backslashes: the escaping must
  // survive the round trip byte-for-byte.
  EXPECT_EQ(findings[0].At("context").AsString(),
            report.findings[0].context);
  const auto& stale = doc.At("stale_baseline").Items();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].At("file").AsString(), "src/gone.cpp");
  EXPECT_EQ(stale[0].At("reason").AsString(), "stale.");
}

TEST(RtmlintReportTest, RulesJsonListsEveryBuiltinSortedByName) {
  RuleRegistry registry;
  RegisterBuiltinRules(registry);
  const util::JsonValue doc =
      util::JsonValue::Parse(WriteRulesJson(registry));
  ASSERT_TRUE(doc.is_array());
  const auto& rules = doc.Items();
  ASSERT_EQ(rules.size(), registry.size());
  std::string previous;
  for (const util::JsonValue& rule : rules) {
    const std::string name = rule.At("name").AsString();
    EXPECT_LT(previous, name);  // sorted, the placement_explorer idiom
    EXPECT_FALSE(rule.At("category").AsString().empty());
    EXPECT_FALSE(rule.At("summary").AsString().empty());
    EXPECT_NO_THROW(
        static_cast<void>(ParseSeverity(rule.At("severity").AsString())));
    previous = name;
  }
}

TEST(RtmlintReportTest, GlobalRegistryHasTheBuiltins) {
  EXPECT_GE(RuleRegistry::Global().size(), 7u);
  EXPECT_TRUE(RuleRegistry::Global().Contains("determinism-rng"));
  EXPECT_TRUE(RuleRegistry::Global().Contains("include-hygiene"));
}

}  // namespace
}  // namespace rtmp::rtmlint
