// CUSUM phase detection (ISSUE 6 satellite): deterministic boundary
// placement, reset semantics, parsing, validation, and the registered
// online-cusum-* policies.
//
// The arithmetic is pinned exactly: two disjoint transition
// distributions have total variation distance 1, and after one un-fired
// observation the EWMA model (alpha = 0.3) sits at distance 0.7 from the
// new phase, so with slack 0 the statistic walks 0, 0, 1.0, 1.7 — a
// threshold of 1.5 fires on the SECOND swapped window and on no other,
// which a one-shot EWMA detector with the same threshold never could
// (single-window drift is bounded by 1).
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "online/engine.h"
#include "online/phase_detector.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

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
  const std::span<const trace::Access> accesses = full.accesses();
  const auto summary_a = online::SummarizeTransitions(accesses.subspan(0, 16));
  const auto summary_b = online::SummarizeTransitions(accesses.subspan(16));

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
  const std::span<const trace::Access> accesses = full.accesses();
  const auto summary_a = online::SummarizeTransitions(accesses.subspan(0, 8));
  const auto summary_b = online::SummarizeTransitions(accesses.subspan(8));
  EXPECT_FALSE(detector.Observe(summary_a).phase_change);
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(detector.Observe(summary_b).phase_change) << w;
  }
}

TEST(CusumDetector, ResetReturnsToTheSeedState) {
  online::PhaseDetector detector(CusumConfig(/*threshold=*/1.5,
                                             /*slack=*/0.0));
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd");
  const std::span<const trace::Access> accesses = full.accesses();
  const auto summary_a = online::SummarizeTransitions(accesses.subspan(0, 8));
  const auto summary_b = online::SummarizeTransitions(accesses.subspan(8));

  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(detector.Observe(summary_a).phase_change) << round;
    EXPECT_FALSE(detector.Observe(summary_b).phase_change) << round;
    EXPECT_TRUE(detector.Observe(summary_b).phase_change) << round;
    detector.Reset();
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
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->detector, "cusum");
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

}  // namespace
