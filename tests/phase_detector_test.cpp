// CUSUM phase detection: deterministic boundary placement, parsing,
// validation, and the registered online-cusum-* policies.
//
// The arithmetic is pinned exactly: two disjoint transition
// distributions have total variation distance 1, and after one un-fired
// observation the EWMA model (alpha = 0.3) sits at distance 0.7 from the
// new phase, so with slack 0 the statistic walks 0, 0, 1.0, 1.7 — a
// threshold of 1.5 fires on the SECOND swapped window and on no other,
// which a one-shot EWMA detector with the same threshold never could
// (single-window drift is bounded by 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "online/engine.h"
#include "online/phase_detector.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

/// The transition summary of `seq`'s accesses [begin, end).
online::TransitionSummary Summarize(const trace::AccessSequence& seq,
                                    std::size_t begin, std::size_t end) {
  online::TransitionScratch scratch;
  online::TransitionSummary summary;
  const std::span<const trace::Access> accesses = seq.accesses();
  online::SummarizeTransitions(accesses.subspan(begin, end - begin),
                               seq.num_variables(), scratch, summary);
  return summary;
}

online::PhaseDetectorConfig CusumConfig(double threshold, double slack) {
  online::PhaseDetectorConfig config;
  config.kind = online::DetectorKind::kCusum;
  config.threshold = threshold;
  config.alpha = 0.3;
  config.slack = slack;
  return config;
}

TEST(CusumDetector, IntegratesDriftToADeterministicBoundary) {
  online::PhaseDetector detector(CusumConfig(/*threshold=*/1.5,
                                             /*slack=*/0.0));
  // Phase A: a-b-a-b...; phase B: c-d-c-d... One shared variable space —
  // the ids (hence transition keys) must actually differ across phases.
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababababababab" "cdcdcdcdcdcdcdcd");
  const auto summary_a = Summarize(full, 0, 16);
  const auto summary_b = Summarize(full, 16, full.size());

  EXPECT_FALSE(detector.Observe(summary_a).phase_change);  // seeds
  const auto stable = detector.Observe(summary_a);
  EXPECT_FALSE(stable.phase_change);
  EXPECT_DOUBLE_EQ(stable.drift, 0.0);
  // First swapped window: S = 1.0 <= 1.5, no boundary yet — exactly the
  // window where an EWMA detector would have to fire or never fire.
  const auto first = detector.Observe(summary_b);
  EXPECT_FALSE(first.phase_change);
  EXPECT_DOUBLE_EQ(first.drift, 1.0);
  // Second swapped window: the model moved 0.3 of the way to B, so the
  // drift is 0.7 and S = 1.7 crosses the threshold.
  const auto second = detector.Observe(summary_b);
  EXPECT_TRUE(second.phase_change);
  EXPECT_NEAR(second.drift, 1.7, 1e-12);
  // S and the model reset on the boundary: staying in phase B is quiet.
  const auto settled = detector.Observe(summary_b);
  EXPECT_FALSE(settled.phase_change);
  EXPECT_DOUBLE_EQ(settled.drift, 0.0);
}

TEST(CusumDetector, SlackAbsorbsBoundedDrift) {
  // Slack >= the largest possible single-window drift: the statistic
  // never accumulates, so even a full distribution swap stays silent.
  online::PhaseDetector detector(CusumConfig(/*threshold=*/0.5,
                                             /*slack=*/1.0));
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd");
  const auto summary_a = Summarize(full, 0, 8);
  const auto summary_b = Summarize(full, 8, full.size());
  EXPECT_FALSE(detector.Observe(summary_a).phase_change);
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(detector.Observe(summary_b).phase_change) << w;
  }
}

TEST(DetectorKind, ToStringNamesEveryKind) {
  EXPECT_EQ(online::ToString(online::DetectorKind::kNone), "none");
  EXPECT_EQ(online::ToString(online::DetectorKind::kFixedWindow), "fixed");
  EXPECT_EQ(online::ToString(online::DetectorKind::kEwmaDrift), "ewma");
  EXPECT_EQ(online::ToString(online::DetectorKind::kCusum), "cusum");
}

TEST(CusumDetector, ValidatesItsConfig) {
  // The CUSUM statistic is cumulative, so its threshold may exceed 1 —
  // unlike the EWMA drift, which is a total variation distance.
  EXPECT_NO_THROW(online::PhaseDetector(CusumConfig(1.5, 0.05)));
  EXPECT_THROW(online::PhaseDetector(CusumConfig(-0.1, 0.05)),
               std::invalid_argument);
  EXPECT_THROW(online::PhaseDetector(CusumConfig(1.5, -0.05)),
               std::invalid_argument);
  {
    online::PhaseDetectorConfig bad = CusumConfig(1.5, 0.05);
    bad.alpha = 0.0;
    EXPECT_THROW((online::PhaseDetector(bad)), std::invalid_argument);
  }
  {
    online::PhaseDetectorConfig ewma;
    ewma.kind = online::DetectorKind::kEwmaDrift;
    ewma.threshold = 1.5;
    EXPECT_THROW((online::PhaseDetector(ewma)), std::invalid_argument);
  }
}

TEST(CusumPolicies, AreRegisteredAndRunDeterministically) {
  auto& registry = online::OnlinePolicyRegistry::Global();
  for (const char* name : {"online-cusum-dma-sr", "online-cusum-afd-ofu"}) {
    ASSERT_TRUE(registry.Contains(name)) << name;
    const auto policy = registry.Find(name);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->MakeConfig().detector.kind,
              online::DetectorKind::kCusum);
  }

  const auto workload =
      workloads::ResolveWorkload("phased(gemm-tiled,bfs-frontier)");
  ASSERT_NE(workload, nullptr);
  const auto benchmark = workload->Generate({});
  sim::ExperimentOptions options;
  const sim::RunResult first =
      sim::RunCell(benchmark, 4, "online-cusum-dma-sr", options);
  const sim::RunResult second =
      sim::RunCell(benchmark, 4, "online-cusum-dma-sr", options);
  EXPECT_EQ(first.metrics.shifts, second.metrics.shifts);
  EXPECT_EQ(first.placement_cost, second.placement_cost);
  EXPECT_DOUBLE_EQ(first.metrics.runtime_ns, second.metrics.runtime_ns);
  EXPECT_GT(first.metrics.shifts, 0u);
}

// ---- SummarizeTransitions against the comparison-sort form ---------------

/// The std::sort body SummarizeTransitions had before its counting
/// passes: the reference every form must reproduce exactly.
online::TransitionSummary SortReference(
    std::span<const trace::Access> window) {
  online::TransitionSummary summary;
  if (window.size() < 2) return summary;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 1; i < window.size(); ++i) {
    const std::uint64_t lo =
        std::min(window[i - 1].variable, window[i].variable);
    const std::uint64_t hi =
        std::max(window[i - 1].variable, window[i].variable);
    keys.push_back((lo << 32) | hi);
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    summary.weights.emplace_back(keys[i], j - i);
    i = j;
  }
  summary.total = keys.size();
  return summary;
}

void ExpectSameSummary(const online::TransitionSummary& expected,
                       const online::TransitionSummary& actual) {
  EXPECT_EQ(actual.total, expected.total);
  EXPECT_EQ(actual.weights, expected.weights);
}

std::vector<trace::Access> RandomWindow(util::Rng& rng, std::size_t size,
                                        std::uint64_t num_ids) {
  std::vector<trace::Access> window;
  for (std::size_t i = 0; i < size; ++i) {
    window.push_back({static_cast<trace::VariableId>(rng.NextBelow(num_ids)),
                      rng.NextBelow(2) == 0 ? trace::AccessType::kRead
                                            : trace::AccessType::kWrite});
  }
  return window;
}

TEST(SummarizeTransitions, RandomWindowsMatchTheSortReference) {
  util::Rng rng(29);
  // One scratch and one summary across every window, as the engine
  // reuses them.
  online::TransitionScratch scratch;
  online::TransitionSummary reused;
  for (int round = 0; round < 300; ++round) {
    const std::uint64_t num_ids = 1 + rng.NextBelow(round % 3 == 0 ? 4 : 1500);
    const std::size_t size = rng.NextBelow(300);
    const std::vector<trace::Access> window = RandomWindow(rng, size, num_ids);
    const online::TransitionSummary expected = SortReference(window);
    online::SummarizeTransitions(window, num_ids, scratch, reused);
    ExpectSameSummary(expected, reused);
    // The counting passes take one bucket per id below the bound.
    if (size >= 2) {
      EXPECT_EQ(scratch.count.size(), num_ids + 1);
    }
  }
}

TEST(SummarizeTransitions, RejectsIdsAtOrPastTheBound) {
  constexpr trace::VariableId kTop = std::numeric_limits<std::uint32_t>::max();
  online::TransitionScratch scratch;
  online::TransitionSummary summary;
  const std::vector<trace::Access> window = {{3}, {kTop}};
  EXPECT_THROW(online::SummarizeTransitions(window, 8, scratch, summary),
               std::out_of_range);
  const std::vector<trace::Access> single = {{8}};
  EXPECT_THROW(online::SummarizeTransitions(single, 8, scratch, summary),
               std::out_of_range);
}

TEST(SummarizeTransitions, WindowsOfZeroOneAndTwoAccesses) {
  online::TransitionScratch scratch;
  online::TransitionSummary summary;
  const std::vector<trace::Access> window = {{5}, {2}};
  for (std::size_t size = 0; size <= 2; ++size) {
    const std::span<const trace::Access> prefix(window.data(), size);
    const online::TransitionSummary expected = SortReference(prefix);
    online::SummarizeTransitions(prefix, 6, scratch, summary);
    ExpectSameSummary(expected, summary);
    EXPECT_EQ(summary.empty(), size < 2);
  }
  ASSERT_EQ(summary.weights.size(), 1u);
  EXPECT_EQ(summary.weights[0].first, (std::uint64_t{2} << 32) | 5);
  EXPECT_EQ(summary.weights[0].second, 1u);
}

}  // namespace
