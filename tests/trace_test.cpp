#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "trace/variable_stats.h"
#include "util/rng.h"

namespace rtmp::trace {
namespace {

// ---------------------------------------------------- AccessSequence ----

TEST(AccessSequence, FromCompactStringAssignsIdsByFirstUse) {
  const auto seq = AccessSequence::FromCompactString("abacab");
  EXPECT_EQ(seq.num_variables(), 3u);
  EXPECT_EQ(seq.size(), 6u);
  EXPECT_EQ(seq.name_of(0), "a");
  EXPECT_EQ(seq.name_of(1), "b");
  EXPECT_EQ(seq.name_of(2), "c");
  EXPECT_EQ(seq[0].variable, 0u);
  EXPECT_EQ(seq[3].variable, 2u);
}

TEST(AccessSequence, FromTokensParsesWriteMarkers) {
  const std::vector<std::string> tokens{"x", "y!", "x"};
  const auto seq = AccessSequence::FromTokens(tokens);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0].type, AccessType::kRead);
  EXPECT_EQ(seq[1].type, AccessType::kWrite);
  EXPECT_EQ(seq.CountWrites(), 1u);
}

TEST(AccessSequence, BareWriteMarkerThrows) {
  const std::vector<std::string> tokens{"!"};
  EXPECT_THROW(AccessSequence::FromTokens(tokens), std::invalid_argument);
}

TEST(AccessSequence, AddVariableIsIdempotent) {
  AccessSequence seq;
  const auto a1 = seq.AddVariable("a");
  const auto a2 = seq.AddVariable("a");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(seq.num_variables(), 1u);
}

std::vector<VariableId> IdsByName(const AccessSequence& seq) {
  std::vector<VariableId> ids;
  seq.ForEachIdByName([&ids](VariableId v) { ids.push_back(v); });
  return ids;
}

std::vector<std::string> NamesByName(const AccessSequence& seq) {
  std::vector<std::string> names;
  for (const VariableId v : IdsByName(seq)) names.push_back(seq.name_of(v));
  return names;
}

std::vector<std::string> SortedUnique(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// ForEachIdByName is the name order name tie-breaks walk: kept sorted by
// every AddVariable, whatever order names arrive in — including names
// that share their first 8 bytes, prefixes of each other, an embedded
// NUL and bytes above 0x7f (std::string compares bytes as unsigned char).
TEST(AccessSequence, NameIndexStaysSortedUnderOutOfOrderRegistration) {
  using namespace std::string_literals;
  std::vector<std::string> names = {"m", "c", "x", "a", "q", "c", "b", "zz"};
  names.insert(names.end(), {"abcdefgh2", "abcdefgh10", "abcdefgh", "ab"});
  names.insert(names.end(), {"ab\0"s, "\xc3\xa9t\xc3\xa9", "Z", "abcdefgh"});
  AccessSequence seq;
  for (const std::string& name : names) (void)seq.AddVariable(name);
  const std::vector<std::string> expected = SortedUnique(names);
  ASSERT_EQ(seq.num_variables(), expected.size());  // re-registrations
  EXPECT_EQ(NamesByName(seq), expected);
  EXPECT_EQ(expected.front(), "Z");
  EXPECT_EQ(expected.back(), "\xc3\xa9t\xc3\xa9");
}

// Enough names to fill and split many index blocks, arriving scrambled,
// ascending and descending.
TEST(AccessSequence, NameIndexIsSortedForEveryRegistrationOrder) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 700; ++i) names.push_back(MakeVariableName(i));
  const std::vector<std::string> sorted = SortedUnique(names);
  const std::vector<std::string> descending(sorted.rbegin(), sorted.rend());
  for (const auto& order : {names, sorted, descending}) {
    AccessSequence seq;
    for (const std::string& name : order) (void)seq.AddVariable(name);
    (void)seq.AddVariable(order[17]);  // idempotent
    ASSERT_EQ(seq.num_variables(), sorted.size());
    EXPECT_EQ(NamesByName(seq), sorted);
  }
  // The scrambled prefixes decorrelate name order from id order.
  AccessSequence scrambled;
  for (const std::string& name : names) (void)scrambled.AddVariable(name);
  const std::vector<VariableId> ids = IdsByName(scrambled);
  EXPECT_FALSE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(AccessSequence, NameIndexSurvivesCopyAndClearAccesses) {
  AccessSequence seq = AccessSequence::FromCompactString("dbdacb");
  const std::vector<VariableId> before = IdsByName(seq);
  AccessSequence copy = seq;
  EXPECT_EQ(IdsByName(copy), before);
  seq.ClearAccesses();
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(IdsByName(seq), before);
  // The copy's index is its own: registering there leaves `seq` alone.
  (void)copy.AddVariable("aa");
  EXPECT_EQ(IdsByName(seq), before);
  EXPECT_EQ(NamesByName(copy),
            (std::vector<std::string>{"a", "aa", "b", "c", "d"}));
  // Registering into a cleared sequence keeps the index in step.
  (void)seq.AddVariable("e");
  EXPECT_EQ(NamesByName(seq),
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
}

TEST(AccessSequence, AppendRejectsUnknownId) {
  AccessSequence seq;
  seq.AddVariable("a");
  EXPECT_THROW(seq.Append(5), std::out_of_range);
}

TEST(AccessSequence, FindVariable) {
  AccessSequence seq;
  seq.AddVariable("alpha");
  EXPECT_TRUE(seq.FindVariable("alpha").has_value());
  EXPECT_FALSE(seq.FindVariable("beta").has_value());
}

TEST(AccessSequence, RestrictKeepsOrderAndSubset) {
  const auto seq = AccessSequence::FromCompactString("abcabca");
  const VariableId keep[] = {0, 2};  // a and c
  const auto restricted = seq.Restrict(keep);
  ASSERT_EQ(restricted.size(), 5u);
  EXPECT_EQ(restricted[0].variable, 0u);
  EXPECT_EQ(restricted[1].variable, 2u);
  EXPECT_EQ(restricted[4].variable, 0u);
}

TEST(AccessSequence, EmptySequence) {
  AccessSequence seq;
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.CountWrites(), 0u);
}

// ----------------------------------------------------- VariableStats ----

TEST(VariableStats, ComputesFrequencyFirstLast) {
  const auto seq = AccessSequence::FromCompactString("abab");
  const auto stats = ComputeVariableStats(seq);
  EXPECT_EQ(stats[0].frequency, 2u);
  EXPECT_EQ(stats[0].first, 0u);
  EXPECT_EQ(stats[0].last, 2u);
  EXPECT_EQ(stats[1].first, 1u);
  EXPECT_EQ(stats[1].last, 3u);
}

TEST(VariableStats, AbsentVariableHasSentinelStats) {
  AccessSequence seq;
  seq.AddVariable("used");
  seq.AddVariable("unused");
  seq.Append(0);
  const auto stats = ComputeVariableStats(seq);
  EXPECT_EQ(stats[1].frequency, 0u);
  EXPECT_EQ(stats[1].first, kNever);
  EXPECT_EQ(stats[1].Lifespan(), 0u);
}

TEST(VariableStats, DisjointnessIsSymmetricAndIrreflexiveForOverlap) {
  const auto seq = AccessSequence::FromCompactString("aabb");
  const auto stats = ComputeVariableStats(seq);
  EXPECT_TRUE(LifespansDisjoint(stats[0], stats[1]));
  EXPECT_TRUE(LifespansDisjoint(stats[1], stats[0]));
  EXPECT_FALSE(LifespansDisjoint(stats[0], stats[0]));
}

TEST(VariableStats, StraddlingVariableOverlapsBothNeighbors) {
  // Positions: a0 c1 a2 b3 c4 b5 -> a:[0,2], c:[1,4], b:[3,5].
  // a and b are disjoint (gap-free back to back), c overlaps both.
  const auto seq = AccessSequence::FromCompactString("acabcb");
  const auto stats = ComputeVariableStats(seq);
  EXPECT_TRUE(LifespansDisjoint(stats[0], stats[2]));   // a vs b
  EXPECT_FALSE(LifespansDisjoint(stats[0], stats[1]));  // a vs c
  EXPECT_FALSE(LifespansDisjoint(stats[1], stats[2]));  // c vs b
}

TEST(VariableStats, NestingIsStrict) {
  const auto seq = AccessSequence::FromCompactString("abba");
  const auto stats = ComputeVariableStats(seq);
  EXPECT_TRUE(LifespanNestedWithin(stats[1], stats[0]));
  EXPECT_FALSE(LifespanNestedWithin(stats[0], stats[1]));
  EXPECT_FALSE(LifespanNestedWithin(stats[0], stats[0]));
}

// ---------------------------------------------------------- TraceIo ----

TEST(TraceIo, ParsesBenchmarkAndSequences) {
  const std::string text =
      "# comment\n"
      "benchmark demo\n"
      "sequence first\n"
      "a b a c!\n"
      "sequence\n"
      "x y\n";
  const TraceFile trace = ReadTraceFromString(text);
  EXPECT_EQ(trace.benchmark, "demo");
  ASSERT_EQ(trace.sequences.size(), 2u);
  EXPECT_EQ(trace.sequence_names[0], "first");
  EXPECT_EQ(trace.sequences[0].size(), 4u);
  EXPECT_EQ(trace.sequences[0].CountWrites(), 1u);
  EXPECT_EQ(trace.sequences[1].num_variables(), 2u);
}

TEST(TraceIo, AccessesBeforeSequenceThrow) {
  EXPECT_THROW(ReadTraceFromString("a b c\n"), std::runtime_error);
}

TEST(TraceIo, MalformedDirectivesThrow) {
  EXPECT_THROW(ReadTraceFromString("benchmark\n"), std::runtime_error);
  EXPECT_THROW(ReadTraceFromString("benchmark a b\n"), std::runtime_error);
  EXPECT_THROW(ReadTraceFromString("sequence a b\n"), std::runtime_error);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  TraceFile original;
  original.benchmark = "roundtrip";
  original.sequence_names = {"s0", ""};
  original.sequences.push_back(AccessSequence::FromTokens(
      std::vector<std::string>{"a", "b!", "a", "c"}));
  original.sequences.push_back(
      AccessSequence::FromTokens(std::vector<std::string>{"x"}));
  const std::string text = WriteTraceToString(original);
  const TraceFile parsed = ReadTraceFromString(text);
  ASSERT_EQ(parsed.sequences.size(), 2u);
  EXPECT_EQ(parsed.benchmark, "roundtrip");
  EXPECT_EQ(parsed.sequences[0].accesses(), original.sequences[0].accesses());
  EXPECT_EQ(parsed.sequences[0].variable_names(),
            original.sequences[0].variable_names());
  EXPECT_EQ(parsed.sequences[1].size(), 1u);
}

TEST(TraceIo, MultiLineSequencesConcatenate) {
  const TraceFile trace = ReadTraceFromString(
      "sequence\n"
      "a b\n"
      "c d\n");
  ASSERT_EQ(trace.sequences.size(), 1u);
  EXPECT_EQ(trace.sequences[0].size(), 4u);
}

// -------------------------------------------------------- Generators ----

TEST(Generators, UniformRespectsShape) {
  util::Rng rng(1);
  UniformParams p;
  p.num_vars = 10;
  p.length = 200;
  p.write_fraction = 0.5;
  const auto seq = GenerateUniform(p, rng);
  EXPECT_EQ(seq.num_variables(), 10u);
  EXPECT_EQ(seq.size(), 200u);
  EXPECT_GT(seq.CountWrites(), 50u);
  EXPECT_LT(seq.CountWrites(), 150u);
}

TEST(Generators, GeneratorsAreDeterministic) {
  util::Rng rng1(77);
  util::Rng rng2(77);
  const auto a = GenerateZipf({}, rng1);
  const auto b = GenerateZipf({}, rng2);
  EXPECT_EQ(a.accesses(), b.accesses());
}

TEST(Generators, ZipfConcentratesAccesses) {
  util::Rng rng(2);
  ZipfParams p;
  p.num_vars = 50;
  p.length = 5000;
  p.exponent = 1.2;
  const auto seq = GenerateZipf(p, rng);
  const auto stats = ComputeVariableStats(seq);
  std::uint64_t max_freq = 0;
  for (const auto& s : stats) max_freq = std::max(max_freq, s.frequency);
  // The hottest variable should far exceed the uniform share.
  EXPECT_GT(max_freq, 5000u / 50u * 4);
}

TEST(Generators, PhasedProducesDisjointPhaseGroups) {
  util::Rng rng(3);
  PhasedParams p;
  p.num_phases = 4;
  p.vars_per_phase = 6;
  p.accesses_per_phase = 64;
  p.num_globals = 0;
  const auto seq = GeneratePhased(p, rng);
  const auto stats = ComputeVariableStats(seq);
  // A variable of phase 0 and one of phase 3 must have disjoint lifespans.
  bool found_disjoint = false;
  for (std::size_t u = 0; u < p.vars_per_phase; ++u) {
    for (std::size_t v = 3 * p.vars_per_phase; v < 4 * p.vars_per_phase; ++v) {
      if (stats[u].frequency == 0 || stats[v].frequency == 0) continue;
      if (LifespansDisjoint(stats[u], stats[v])) found_disjoint = true;
    }
  }
  EXPECT_TRUE(found_disjoint);
}

TEST(Generators, MarkovRespectsShape) {
  util::Rng rng(4);
  MarkovParams p;
  p.num_vars = 20;
  p.length = 300;
  const auto seq = GenerateMarkov(p, rng);
  EXPECT_EQ(seq.size(), 300u);
  EXPECT_EQ(seq.num_variables(), 20u);
}

TEST(Generators, MarkovSelfLoopsProduceRepeats) {
  util::Rng rng(5);
  MarkovParams p;
  p.num_vars = 10;
  p.length = 500;
  p.self_loop_prob = 0.9;
  p.locality_prob = 0.05;
  const auto seq = GenerateMarkov(p, rng);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i].variable == seq[i - 1].variable) ++repeats;
  }
  EXPECT_GT(repeats, seq.size() / 2);
}

TEST(Generators, LoopNestSweepsArrays) {
  util::Rng rng(6);
  LoopNestParams p;
  p.num_arrays = 2;
  p.array_len = 8;
  p.num_scalars = 2;
  p.iterations = 3;
  p.scalar_access_prob = 0.0;
  const auto seq = GenerateLoopNest(p, rng);
  EXPECT_EQ(seq.num_variables(), 2u * 8u + 2u);
  // Without scalar interleaving: iterations * array_len * num_arrays.
  EXPECT_EQ(seq.size(), 3u * 8u * 2u);
}

TEST(Generators, LoopNestKernelsHaveDisjointArrays) {
  util::Rng rng(8);
  LoopNestParams p;
  p.num_arrays = 2;
  p.array_len = 4;
  p.num_scalars = 1;
  p.iterations = 3;
  p.num_kernels = 3;
  p.scalar_access_prob = 0.0;
  const auto seq = GenerateLoopNest(p, rng);
  EXPECT_EQ(seq.num_variables(), 3u * 8u + 1u);
  const auto stats = ComputeVariableStats(seq);
  // Any kernel-0 array variable is disjoint from any kernel-2 one.
  EXPECT_TRUE(LifespansDisjoint(stats[0], stats[16]));
  EXPECT_TRUE(LifespansDisjoint(stats[7], stats[23]));
}

TEST(Generators, SequentialWindowRetiresVariablesPermanently) {
  util::Rng rng(9);
  SequentialParams p;
  p.num_vars = 40;
  p.length = 600;
  p.window = 4;
  p.num_globals = 0;
  const auto seq = GenerateSequential(p, rng);
  const auto stats = ComputeVariableStats(seq);
  // Variables far apart in introduction order must have disjoint lifespans
  // (the window slides forward monotonically).
  std::uint64_t checked = 0;
  for (VariableId v = 0; v + 12 < 40; ++v) {
    if (stats[v].frequency == 0 || stats[v + 12].frequency == 0) continue;
    EXPECT_TRUE(LifespansDisjoint(stats[v], stats[v + 12]))
        << "v" << v << " vs v" << v + 12;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(Generators, SequentialConcentratesTrafficInShortRuns) {
  util::Rng rng(10);
  SequentialParams p;
  p.num_vars = 30;
  p.length = 500;
  p.stay_prob = 0.6;
  p.num_globals = 0;
  const auto seq = GenerateSequential(p, rng);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    if (seq[i].variable == seq[i - 1].variable) ++repeats;
  }
  // Heavy self-repetition is the defining property of the shape.
  EXPECT_GT(repeats, seq.size() / 3);
}

TEST(Generators, SequentialIsDeterministic) {
  util::Rng a(11);
  util::Rng b(11);
  const auto s1 = GenerateSequential({}, a);
  const auto s2 = GenerateSequential({}, b);
  EXPECT_EQ(s1.accesses(), s2.accesses());
}

TEST(Generators, EmptyLengthYieldsEmptySequence) {
  util::Rng rng(7);
  UniformParams p;
  p.num_vars = 4;
  p.length = 0;
  const auto seq = GenerateUniform(p, rng);
  EXPECT_TRUE(seq.empty());
  EXPECT_EQ(seq.num_variables(), 4u);
}

}  // namespace
}  // namespace rtmp::trace
