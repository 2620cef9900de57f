// Property tests over the workload registry: every registered workload
// must be deterministic at a fixed seed (bit-identical across two
// generations and under RTMPLACE_THREADS variation), must emit only
// variable ids covered by its declared variable count, and must produce
// non-empty benchmarks across the documented parameter ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "offsetstone/suite.h"
#include "workloads/phased.h"
#include "workloads/synthetic.h"
#include "workloads/workload.h"

namespace rtmp::workloads {
namespace {

using offsetstone::Benchmark;

/// Bit-identical benchmark comparison: names, variable tables (ids and
/// spellings) and every access in order.
void ExpectIdentical(const Benchmark& a, const Benchmark& b) {
  EXPECT_EQ(a.name, b.name);
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (std::size_t s = 0; s < a.sequences.size(); ++s) {
    const trace::AccessSequence& sa = a.sequences[s];
    const trace::AccessSequence& sb = b.sequences[s];
    EXPECT_EQ(sa.variable_names(), sb.variable_names()) << "sequence " << s;
    EXPECT_EQ(sa.accesses(), sb.accesses()) << "sequence " << s;
  }
}

TEST(WorkloadRegistry, EveryWorkloadIsDeterministicAtAFixedSeed) {
  const WorkloadRequest request{/*seed=*/123, /*scale=*/0.5};
  for (const std::string& name : WorkloadRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const auto workload = WorkloadRegistry::Global().Find(name);
    ASSERT_NE(workload, nullptr);
    const Benchmark first = workload->Generate(request);
    // Generation must not consult the thread-count environment (it runs
    // on experiment worker threads): vary it between two generations.
    ASSERT_EQ(setenv("RTMPLACE_THREADS", "3", /*overwrite=*/1), 0);
    const Benchmark second = workload->Generate(request);
    ASSERT_EQ(unsetenv("RTMPLACE_THREADS"), 0);
    const Benchmark third = workload->Generate(request);
    ExpectIdentical(first, second);
    ExpectIdentical(first, third);
  }
}

TEST(WorkloadRegistry, DeclaredVariableCountCoversEveryEmittedId) {
  const WorkloadRequest request{/*seed=*/7, /*scale=*/1.0};
  for (const std::string& name : WorkloadRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const Benchmark benchmark =
        WorkloadRegistry::Global().Find(name)->Generate(request);
    for (const trace::AccessSequence& seq : benchmark.sequences) {
      ASSERT_GT(seq.num_variables(), 0u);
      trace::VariableId max_id = 0;
      for (const trace::Access& access : seq.accesses()) {
        max_id = std::max(max_id, access.variable);
      }
      // Consistency both ways: no access outside the declared table,
      // and the table is not declared absurdly beyond what the name
      // table holds (ids are dense by construction).
      EXPECT_LT(max_id, seq.num_variables());
      EXPECT_EQ(seq.variable_names().size(), seq.num_variables());
    }
  }
}

TEST(WorkloadRegistry, NonEmptyAcrossDocumentedParameterRanges) {
  for (const double scale : {0.25, 1.0, 2.0}) {
    for (const std::uint64_t seed : {0ULL, 1ULL}) {
      const WorkloadRequest request{seed, scale};
      for (const std::string& name : WorkloadRegistry::Global().Names()) {
        SCOPED_TRACE(name + " scale=" + std::to_string(scale) +
                     " seed=" + std::to_string(seed));
        const Benchmark benchmark =
            WorkloadRegistry::Global().Find(name)->Generate(request);
        ASSERT_FALSE(benchmark.sequences.empty());
        std::size_t accesses = 0;
        for (const auto& seq : benchmark.sequences) accesses += seq.size();
        EXPECT_GT(accesses, 0u);
      }
    }
  }
}

TEST(WorkloadRegistry, OutOfRangeScaleIsRejectedEverywhere) {
  for (const std::string& name : WorkloadRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    const auto workload = WorkloadRegistry::Global().Find(name);
    EXPECT_THROW((void)workload->Generate({0, 0.0}), std::invalid_argument);
    EXPECT_THROW((void)workload->Generate({0, -1.0}), std::invalid_argument);
    EXPECT_THROW((void)workload->Generate({0, 17.0}), std::invalid_argument);
  }
}

TEST(WorkloadRegistry, SuiteWorkloadAtScaleOneMatchesTheSuiteGenerator) {
  // The registry must not fork the suite: "gsm" at scale 1 IS the suite
  // benchmark the figures run on.
  const auto profile = offsetstone::FindProfile("gsm");
  ASSERT_TRUE(profile.has_value());
  const Benchmark from_suite = offsetstone::Generate(*profile, /*seed=*/0);
  const Benchmark from_registry =
      WorkloadRegistry::Global().Find("gsm")->Generate({0, 1.0});
  ExpectIdentical(from_suite, from_registry);
  // Half scale keeps a deterministic prefix of the same sequences.
  const Benchmark half =
      WorkloadRegistry::Global().Find("gsm")->Generate({0, 0.5});
  ASSERT_LT(half.sequences.size(), from_suite.sequences.size());
  for (std::size_t s = 0; s < half.sequences.size(); ++s) {
    EXPECT_EQ(half.sequences[s].accesses(), from_suite.sequences[s].accesses());
  }
}

TEST(WorkloadRegistry, RegistrationValidatesNames) {
  WorkloadRegistry registry;
  RegisterBuiltinWorkloads(registry);
  EXPECT_GE(registry.size(), 45u);
  const auto factory = [] {
    return WorkloadRegistry::Global().Find("stencil");
  };
  EXPECT_THROW(registry.Register("", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("has space", factory),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("stencil", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("STENCIL", factory), std::invalid_argument);
  registry.Register("my-trace", factory);
  EXPECT_TRUE(registry.Contains("MY-TRACE"));  // case-insensitive
  EXPECT_EQ(registry.Find("nope"), nullptr);
}

TEST(WorkloadRegistry, ResolveFallsBackToTraceFiles) {
  EXPECT_NE(ResolveWorkload("fft-butterfly"), nullptr);
  EXPECT_EQ(ResolveWorkload("definitely-not-registered"), nullptr);

  const std::string path = testing::TempDir() + "/resolve_test.trace";
  {
    std::ofstream out(path);
    out << "benchmark tiny\nsequence s0\na b a! c\n";
  }
  const auto workload = ResolveWorkload(path);
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->Describe().family, "trace");
  const Benchmark benchmark = workload->Generate({});
  EXPECT_EQ(benchmark.name, "tiny");
  ASSERT_EQ(benchmark.sequences.size(), 1u);
  EXPECT_EQ(benchmark.sequences[0].size(), 4u);
  EXPECT_EQ(benchmark.sequences[0].num_variables(), 3u);
}

TEST(PhasedCombinator, SplicesPhasesOverOnePositionalVariableSpace) {
  const auto workload = ResolveWorkload("phased(gemm-tiled,stream-scan)");
  ASSERT_NE(workload, nullptr);
  EXPECT_EQ(workload->Describe().family, "combinator");
  EXPECT_EQ(workload->Describe().name, "phased(gemm-tiled,stream-scan)");

  const Benchmark spliced = workload->Generate({});
  const Benchmark gemm =
      ResolveWorkload("gemm-tiled")->Generate({});
  const Benchmark scan =
      ResolveWorkload("stream-scan")->Generate({});

  EXPECT_EQ(spliced.name, "phased(gemm-tiled,stream-scan)");
  EXPECT_EQ(spliced.sequences.size(),
            std::max(gemm.sequences.size(), scan.sequences.size()));
  for (std::size_t i = 0; i < spliced.sequences.size(); ++i) {
    const auto& a = gemm.sequences[i % gemm.sequences.size()];
    const auto& b = scan.sequences[i % scan.sequences.size()];
    const auto& s = spliced.sequences[i];
    // The seam is a pure concatenation: phase order, lengths and write
    // flags are preserved, over max(|V_a|, |V_b|) shared "x<i>" vars.
    ASSERT_EQ(s.size(), a.size() + b.size()) << "sequence " << i;
    EXPECT_EQ(s.num_variables(),
              std::max(a.num_variables(), b.num_variables()));
    EXPECT_EQ(s.name_of(0), "x0");
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(s[k].variable, a[k].variable);
      EXPECT_EQ(s[k].type, a[k].type);
    }
    for (std::size_t k = 0; k < b.size(); ++k) {
      EXPECT_EQ(s[a.size() + k].variable, b[k].variable);
      EXPECT_EQ(s[a.size() + k].type, b[k].type);
    }
  }
}

TEST(PhasedCombinator, IsDeterministicAndSeedAware) {
  const auto workload =
      ResolveWorkload("phased(stencil,fft-butterfly,kv-churn)");
  ASSERT_NE(workload, nullptr);
  ExpectIdentical(workload->Generate({7, 1.0}), workload->Generate({7, 1.0}));
  // A different seed reaches the phases.
  const Benchmark a = workload->Generate({7, 1.0});
  const Benchmark b = workload->Generate({8, 1.0});
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  bool any_difference = false;
  for (std::size_t s = 0; s < a.sequences.size(); ++s) {
    any_difference |= !(a.sequences[s].accesses() ==
                        b.sequences[s].accesses());
  }
  EXPECT_TRUE(any_difference);
}

TEST(PhasedCombinator, SupportsNestingAndRejectsMalformedSpecs) {
  // Nested specs parse (the inner phased(...) is one phase).
  const auto nested =
      ResolveWorkload("phased(phased(stencil,stream-scan),kv-churn)");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->Describe().name,
            "phased(phased(stencil,stream-scan),kv-churn)");
  EXPECT_FALSE(nested->Generate({}).sequences.empty());

  // Non-phased specs pass through untouched.
  EXPECT_EQ(ParsePhasedSpec("stencil"), std::nullopt);
  EXPECT_EQ(ParsePhasedSpec("phasedish"), std::nullopt);

  // Malformed specs throw instead of resolving to something else.
  EXPECT_THROW((void)ResolveWorkload("phased(stencil"),
               std::invalid_argument);
  EXPECT_THROW((void)ResolveWorkload("phased(stencil,,kv-churn)"),
               std::invalid_argument);
  EXPECT_THROW((void)ResolveWorkload("phased()"), std::invalid_argument);
  EXPECT_THROW((void)ResolveWorkload("phased(stencil))"),
               std::invalid_argument);

  // An unknown phase surfaces at Generate() time.
  const auto unknown = ResolveWorkload("phased(stencil,nope-nope)");
  ASSERT_NE(unknown, nullptr);
  EXPECT_THROW((void)unknown->Generate({}), std::invalid_argument);
}

TEST(PhasedCombinator, NestingIsCappedAtMaxDepth) {
  const auto nest = [](std::size_t levels) {
    std::string spec;
    for (std::size_t i = 0; i < levels; ++i) spec += "phased(";
    spec += "stencil";
    spec.append(levels, ')');
    return spec;
  };
  const auto deepest = ResolveWorkload(nest(kMaxPhasedDepth));
  ASSERT_NE(deepest, nullptr);
  EXPECT_FALSE(deepest->Generate({}).sequences.empty());
  EXPECT_THROW((void)ResolveWorkload(nest(kMaxPhasedDepth + 1)),
               std::invalid_argument);
  // Rejected by one linear scan before any recursion, however deep.
  EXPECT_THROW((void)ResolveWorkload(nest(100000)), std::invalid_argument);
}

TEST(SyntheticFamilies, StructuralShapesHold) {
  util::Rng rng(1);
  // The stencil writes exactly once per cell per step.
  const auto stencil = GenerateStencil({4, 4, 2}, rng);
  EXPECT_EQ(stencil.num_variables(), 16u);
  EXPECT_EQ(stencil.CountWrites(), 4u * 4u * 2u);
  // The butterfly touches n points over log2(n) stages, half writes.
  const auto fft = GenerateFftButterfly({16, 1}, rng);
  EXPECT_EQ(fft.num_variables(), 16u);
  EXPECT_EQ(fft.size(), 16u * 4u /*log2*/ * 2u);
  EXPECT_EQ(fft.CountWrites(), fft.size() / 2);
  // The chase stays on the cycle: every step touches a registered node.
  const auto chase = GeneratePointerChase({8, 64, 0.0, 0.0}, rng);
  EXPECT_EQ(chase.size(), 64u);
  EXPECT_EQ(chase.CountWrites(), 0u);
}

}  // namespace
}  // namespace rtmp::workloads
