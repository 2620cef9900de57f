#include <gtest/gtest.h>

#include "destiny/device_model.h"

namespace rtmp::destiny {
namespace {

TEST(TableOne, ExactAnchorsMatchThePaper) {
  // Table I, all four columns, all eight rows.
  const DeviceParams& q2 = PaperTableOne(2);
  EXPECT_DOUBLE_EQ(q2.leakage_mw, 3.39);
  EXPECT_DOUBLE_EQ(q2.write_energy_pj, 3.42);
  EXPECT_DOUBLE_EQ(q2.read_energy_pj, 2.26);
  EXPECT_DOUBLE_EQ(q2.shift_energy_pj, 2.18);
  EXPECT_DOUBLE_EQ(q2.read_latency_ns, 0.81);
  EXPECT_DOUBLE_EQ(q2.write_latency_ns, 1.08);
  EXPECT_DOUBLE_EQ(q2.shift_latency_ns, 0.99);
  EXPECT_DOUBLE_EQ(q2.area_mm2, 0.0159);

  const DeviceParams& q16 = PaperTableOne(16);
  EXPECT_DOUBLE_EQ(q16.leakage_mw, 8.94);
  EXPECT_DOUBLE_EQ(q16.write_energy_pj, 3.94);
  EXPECT_DOUBLE_EQ(q16.read_energy_pj, 2.54);
  EXPECT_DOUBLE_EQ(q16.shift_energy_pj, 1.86);
  EXPECT_DOUBLE_EQ(q16.read_latency_ns, 0.89);
  EXPECT_DOUBLE_EQ(q16.write_latency_ns, 1.20);
  EXPECT_DOUBLE_EQ(q16.shift_latency_ns, 0.78);
  EXPECT_DOUBLE_EQ(q16.area_mm2, 0.0279);
}

TEST(TableOne, RejectsNonAnchorCounts) {
  EXPECT_THROW((void)PaperTableOne(3), std::out_of_range);
  EXPECT_THROW((void)PaperTableOne(0), std::out_of_range);
  EXPECT_THROW((void)PaperTableOne(32), std::out_of_range);
}

TEST(TableOne, DomainsPerDbcAreIsoCapacity) {
  EXPECT_EQ(PaperDomainsPerDbc(2), 512u);
  EXPECT_EQ(PaperDomainsPerDbc(4), 256u);
  EXPECT_EQ(PaperDomainsPerDbc(8), 128u);
  EXPECT_EQ(PaperDomainsPerDbc(16), 64u);
  EXPECT_THROW((void)PaperDomainsPerDbc(0), std::invalid_argument);
}

class DeviceModelAnchor : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeviceModelAnchor, EvaluateIsExactAtAnchors) {
  const unsigned dbcs = GetParam();
  const DeviceParams model = EvaluateDevice(dbcs);
  const DeviceParams& paper = PaperTableOne(dbcs);
  EXPECT_DOUBLE_EQ(model.leakage_mw, paper.leakage_mw);
  EXPECT_DOUBLE_EQ(model.write_energy_pj, paper.write_energy_pj);
  EXPECT_DOUBLE_EQ(model.read_energy_pj, paper.read_energy_pj);
  EXPECT_DOUBLE_EQ(model.shift_energy_pj, paper.shift_energy_pj);
  EXPECT_DOUBLE_EQ(model.read_latency_ns, paper.read_latency_ns);
  EXPECT_DOUBLE_EQ(model.write_latency_ns, paper.write_latency_ns);
  EXPECT_DOUBLE_EQ(model.shift_latency_ns, paper.shift_latency_ns);
  EXPECT_DOUBLE_EQ(model.area_mm2, paper.area_mm2);
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, DeviceModelAnchor,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(DeviceModel, InterpolatesBetweenAnchors) {
  const DeviceParams p = EvaluateDevice(6);  // between 4 and 8
  EXPECT_GT(p.leakage_mw, PaperTableOne(4).leakage_mw);
  EXPECT_LT(p.leakage_mw, PaperTableOne(8).leakage_mw);
  EXPECT_LT(p.shift_latency_ns, PaperTableOne(4).shift_latency_ns);
  EXPECT_GT(p.shift_latency_ns, PaperTableOne(8).shift_latency_ns);
}

TEST(DeviceModel, ExtrapolatesBeyondAnchorsMonotonically) {
  const DeviceParams p = EvaluateDevice(32);
  EXPECT_GT(p.leakage_mw, PaperTableOne(16).leakage_mw);
  EXPECT_GT(p.area_mm2, PaperTableOne(16).area_mm2);
  EXPECT_LT(p.shift_energy_pj, PaperTableOne(16).shift_energy_pj);
}

TEST(DeviceModel, MonotoneInDbcCountAcrossAnchors) {
  double last_leak = 0.0;
  double last_shift_lat = 1e9;
  for (const unsigned dbcs : kTableOneDbcCounts) {
    const DeviceParams& p = PaperTableOne(dbcs);
    EXPECT_GT(p.leakage_mw, last_leak);
    EXPECT_LT(p.shift_latency_ns, last_shift_lat);
    last_leak = p.leakage_mw;
    last_shift_lat = p.shift_latency_ns;
  }
}

TEST(DeviceModel, RejectsZeroDbcs) {
  EXPECT_THROW((void)EvaluateDevice(0), std::invalid_argument);
}

}  // namespace
}  // namespace rtmp::destiny
