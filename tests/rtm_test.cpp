#include <gtest/gtest.h>

#include "rtm/config.h"
#include "rtm/energy_model.h"

namespace rtmp::rtm {
namespace {

// -------------------------------------------------------------- config ----

TEST(RtmConfig, PaperConfigsAreConsistent) {
  for (const unsigned dbcs : {2u, 4u, 8u, 16u}) {
    const RtmConfig config = RtmConfig::Paper(dbcs);
    EXPECT_EQ(config.total_dbcs(), dbcs);
    EXPECT_EQ(config.word_capacity(), 1024u);          // iso-capacity
    EXPECT_NO_THROW(config.Validate());
  }
}

TEST(RtmConfig, ValidateRejectsBrokenConfigs) {
  RtmConfig config = RtmConfig::Paper(4);
  config.dbcs = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = RtmConfig::Paper(4);
  config.domains_per_dbc = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

// --------------------------------------------------------- energy ----

TEST(EnergyModel, LeakageUnitsAreMilliwattTimesNanosecond) {
  destiny::DeviceParams params;
  params.leakage_mw = 2.0;
  ActivityCounts activity;
  activity.runtime_ns = 100.0;
  const EnergyBreakdown e = ComputeEnergy(params, activity);
  EXPECT_DOUBLE_EQ(e.leakage_pj, 200.0);  // 2 mW * 100 ns = 200 pJ
}

TEST(EnergyModel, BreakdownSumsToTotal) {
  destiny::DeviceParams params = destiny::PaperTableOne(4);
  ActivityCounts activity{100, 50, 400, 1000.0};
  const EnergyBreakdown e = ComputeEnergy(params, activity);
  EXPECT_DOUBLE_EQ(e.total_pj(), e.leakage_pj + e.read_write_pj + e.shift_pj);
  EXPECT_DOUBLE_EQ(e.read_write_pj, 100 * 2.39 + 50 * 3.65);
  EXPECT_DOUBLE_EQ(e.shift_pj, 400 * 2.03);
}

}  // namespace
}  // namespace rtmp::rtm
