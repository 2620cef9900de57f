// Seeded mutation fuzzers for the two text parsers that take outside
// input besides the trace formats (trace_stream_test fuzzes those):
// util::JsonValue::Parse, which loads BENCH reports and golden files, and
// workloads::ParsePhasedSpec, which reads phased(...) workload specs.
//
// Each fuzzer mutates a small corpus of valid inputs — byte flips,
// grammar-token insertions, range deletions and duplications,
// truncations — and requires every mutant to either parse or throw the
// parser's documented exception type. A parse that succeeds is walked
// end to end, so a malformed value tree cannot hide behind it. Bounded
// and deterministic: fixed seeds, fixed iteration counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "workloads/phased.h"

namespace rtmp {
namespace {

/// The mutation tokens: `spaced` split at single spaces, then `extra`
/// (tokens that are themselves whitespace or control bytes).
std::vector<std::string> Dictionary(std::string_view spaced,
                                    std::vector<std::string> extra) {
  std::size_t start = 0;
  while (start <= spaced.size()) {
    const std::size_t end = std::min(spaced.find(' ', start), spaced.size());
    extra.emplace_back(spaced.substr(start, end - start));
    start = end + 1;
  }
  return extra;
}

/// Applies 1-4 random mutations to `input`: byte flips, insertions of one
/// of `tokens`, range deletions and duplications, truncations.
std::string Mutate(std::string input, const std::vector<std::string>& tokens,
                   util::Rng& rng) {
  const std::uint64_t rounds = 1 + rng.NextBelow(4);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t at = rng.NextBelow(input.size() + 1);
    switch (rng.NextBelow(5)) {
      case 0:  // flip one byte to any value
        if (at < input.size()) {
          input[at] = static_cast<char>(rng.NextBelow(256));
        }
        break;
      case 1:  // insert a grammar token
        input.insert(at, tokens[rng.NextBelow(tokens.size())]);
        break;
      case 2: {  // delete a short range
        const std::size_t length = 1 + rng.NextBelow(8);
        if (at < input.size()) input.erase(at, length);
        break;
      }
      case 3: {  // duplicate a range in place
        if (at < input.size()) {
          const std::size_t length = 1 + rng.NextBelow(input.size() - at);
          input.insert(at, input.substr(at, length));
        }
        break;
      }
      default:  // truncate
        input.resize(at);
        break;
    }
  }
  return input;
}

/// Visits every node of a parsed document through the public accessors.
void WalkJson(const util::JsonValue& value) {
  switch (value.kind()) {
    case util::JsonValue::Kind::kNull:
    case util::JsonValue::Kind::kNumber:
      // Null reads back as NaN; a number's text may still be out of
      // range for a double, which is a clean runtime_error.
      try {
        (void)value.AsDouble();
      } catch (const std::runtime_error&) {
      }
      break;
    case util::JsonValue::Kind::kBool:
      (void)value.AsBool();
      break;
    case util::JsonValue::Kind::kString:
      (void)value.AsString().size();
      break;
    case util::JsonValue::Kind::kArray:
      for (const util::JsonValue& item : value.Items()) WalkJson(item);
      break;
    case util::JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.Members()) {
        EXPECT_NE(value.Find(key), nullptr) << key;
        WalkJson(member);
      }
      break;
  }
}

TEST(ParserFuzz, JsonParseEitherParsesOrThrowsRuntimeError) {
  const std::vector<std::string> corpus = {
      R"({"schema": 3, "scenario": "smoke", "cells": [{"name": "dma-sr",)"
      R"( "shifts": 18446744073709551615, "ratio": -0.125e-3}]})",
      R"([true, false, null, "esc\"\\\/\b\f\n\r\t", "é😀"])",
      R"({"a": {"b": {"c": [1, [2, [3, {"d": []}]]]}}, "e": {}})",
      R"(  -0.0  )",
      R"("plain")",
      std::string(60, '[') + std::string(60, ']'),
  };
  constexpr std::string_view kTokens =
      R"({ } [ ] " \ \u \ud800 : , - e+ . 0 9 true null false 1e999 "k":)";
  const std::vector<std::string> dictionary =
      Dictionary(kTokens, {" ", "\n", std::string(1, '\0'), "\xff", "\xc3"});

  util::Rng rng(0x15A0);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string& seed = corpus[rng.NextBelow(corpus.size())];
    const std::string input = Mutate(seed, dictionary, rng);
    try {
      const util::JsonValue value = util::JsonValue::Parse(input);
      WalkJson(value);
      ++parsed;
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected " << typeid(e).name() << " (" << e.what()
                    << ") on input: " << input;
    }
  }
  // Both outcomes must be common, or the mutator is not probing much.
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 10000u);
}

/// Checks a successful parse and recurses into nested phased(...) phases
/// the way the workload resolver would.
void CheckPhases(std::string_view spec, std::size_t& nested) {
  const std::optional<std::vector<std::string>> phases =
      workloads::ParsePhasedSpec(spec);
  if (!phases.has_value()) return;
  EXPECT_FALSE(phases->empty()) << spec;
  for (const std::string& phase : *phases) {
    EXPECT_FALSE(phase.empty()) << spec;
    if (workloads::ParsePhasedSpec(phase).has_value()) ++nested;
    CheckPhases(phase, nested);
  }
}

TEST(ParserFuzz, PhasedSpecEitherParsesOrThrowsInvalidArgument) {
  const std::vector<std::string> corpus = {
      "phased(stencil,stream-scan)",
      "phased(phased(gemm-tiled,kv-churn), hash-join ,pointer-chase)",
      "  PHASED( stencil , phased(a,phased(b,c)) )  ",
      "phased(x)",
      "stencil",
  };
  const std::vector<std::string> dictionary =
      Dictionary("( ) , phased( PHASED( phased() )) (( ,, a",
                 {" ", "\t", std::string(1, '\0'), "\xff"});

  util::Rng rng(0x9A5ED);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  std::size_t nested = 0;
  for (int i = 0; i < 30000; ++i) {
    const std::string& seed = corpus[rng.NextBelow(corpus.size())];
    const std::string input = Mutate(seed, dictionary, rng);
    try {
      CheckPhases(input, nested);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected " << typeid(e).name() << " (" << e.what()
                    << ") on input: " << input;
    }
  }
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
  EXPECT_GT(nested, 100u);
}

}  // namespace
}  // namespace rtmp
