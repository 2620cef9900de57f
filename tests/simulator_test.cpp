#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/inter_dma.h"
#include "core/placement.h"
#include "rtm/config.h"
#include "sim/simulator.h"
#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace rtmp::sim {
namespace {

using core::Placement;
using trace::AccessSequence;

TEST(Simulator, ShiftsMatchAnalyticCostModel) {
  const auto seq = AccessSequence::FromCompactString("abcabcabc" "ddee");
  const Placement p = Placement::FromLists({{0, 1, 2}, {3, 4}}, 5);
  rtm::RtmConfig config = rtm::RtmConfig::Paper(2);
  const SimulationResult result = Simulate(seq, p, config);
  EXPECT_EQ(result.stats.shifts, core::ShiftCost(seq, p));
  EXPECT_TRUE(SimulatorMatchesCostModel(seq, p, config));
}

TEST(Simulator, MatchesCostModelUnderZeroAlignment) {
  const auto seq = AccessSequence::FromCompactString("dcba" "abcd");
  const Placement p = Placement::FromLists({{0, 1, 2, 3}}, 4);
  rtm::RtmConfig config = rtm::RtmConfig::Paper(2);
  config.dbcs = 1;
  config.initial_alignment = rtm::InitialAlignment::kZero;
  EXPECT_TRUE(SimulatorMatchesCostModel(seq, p, config));
}

TEST(Simulator, RuntimeAndEnergyAreConsistent) {
  const auto seq = AccessSequence::FromCompactString("ababab");
  const Placement p = Placement::FromLists({{0, 1}, {}}, 2);
  const rtm::RtmConfig config = rtm::RtmConfig::Paper(2);
  const SimulationResult result = Simulate(seq, p, config);
  // 5 hops of distance 1 after a free first access.
  EXPECT_EQ(result.stats.shifts, 5u);
  const auto& params = config.params;
  const double expected_runtime =
      6 * params.read_latency_ns + 5 * params.shift_latency_ns;
  EXPECT_DOUBLE_EQ(result.stats.runtime_ns, expected_runtime);
  EXPECT_DOUBLE_EQ(result.energy.leakage_pj,
                   params.leakage_mw * expected_runtime);
  EXPECT_DOUBLE_EQ(result.energy.shift_pj, 5 * params.shift_energy_pj);
  EXPECT_DOUBLE_EQ(result.area_mm2, params.area_mm2);
}

TEST(Simulator, WritesUseWriteLatencyAndEnergy) {
  AccessSequence seq;
  seq.AddVariable("a");
  seq.Append(0, trace::AccessType::kWrite);
  const Placement p = Placement::FromLists({{0}, {}}, 1);
  const rtm::RtmConfig config = rtm::RtmConfig::Paper(2);
  const SimulationResult result = Simulate(seq, p, config);
  EXPECT_EQ(result.stats.writes, 1u);
  EXPECT_DOUBLE_EQ(result.stats.runtime_ns, config.params.write_latency_ns);
  EXPECT_DOUBLE_EQ(result.energy.read_write_pj,
                   config.params.write_energy_pj);
}

TEST(Simulator, RejectsMismatchedShapes) {
  const auto seq = AccessSequence::FromCompactString("ab");
  const Placement p = Placement::FromLists({{0}, {1}}, 2);
  rtm::RtmConfig config = rtm::RtmConfig::Paper(4);  // 4 DBCs vs 2
  EXPECT_THROW((void)Simulate(seq, p, config), std::invalid_argument);
}

TEST(Simulator, RejectsPlacementDeeperThanDbc) {
  const auto seq = AccessSequence::FromCompactString("ab");
  std::vector<std::vector<trace::VariableId>> lists(2);
  rtm::RtmConfig config = rtm::RtmConfig::Paper(2);
  config.domains_per_dbc = 1;
  lists[0] = {0, 1};
  const Placement p = Placement::FromLists(lists, 2);
  EXPECT_THROW((void)Simulate(seq, p, config), std::invalid_argument);
}

TEST(Simulator, AgreesWithCostModelOnGeneratedWorkloads) {
  util::Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    trace::MarkovParams params;
    params.num_vars = 24;
    // Up to 1,750 accesses: Simulate feeds the controller in chunks of
    // 512, so later rounds cross chunk boundaries.
    params.length = 400 + 150 * static_cast<std::size_t>(round);
    const auto seq = trace::GenerateMarkov(params, rng);
    const auto dma = core::DistributeDma(seq, 4, 64, {});
    rtm::RtmConfig config = rtm::RtmConfig::Paper(4);
    config.domains_per_dbc = 64;
    EXPECT_TRUE(SimulatorMatchesCostModel(seq, dma.placement, config));
    EXPECT_EQ(Simulate(seq, dma.placement, config).stats.accesses(),
              seq.size());
  }
}

}  // namespace
}  // namespace rtmp::sim
