#include <gtest/gtest.h>

#include "rtm/config.h"
#include "rtm/dbc_state.h"
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

TEST(RtmConfig, SinglePortDefaultsToOffsetZero) {
  const RtmConfig config = RtmConfig::Paper(4);
  const auto offsets = config.EffectivePortOffsets();
  ASSERT_EQ(offsets.size(), 1u);
  EXPECT_EQ(offsets[0], 0u);
}

TEST(RtmConfig, MultiPortOffsetsAreEvenlySpread) {
  RtmConfig config = RtmConfig::Paper(4);
  config.ports_per_track = 2;
  const auto offsets = config.EffectivePortOffsets();
  ASSERT_EQ(offsets.size(), 2u);
  EXPECT_EQ(offsets[0], 64u);   // 256/4
  EXPECT_EQ(offsets[1], 192u);  // 3*256/4
}

TEST(RtmConfig, ValidateRejectsBrokenConfigs) {
  RtmConfig config = RtmConfig::Paper(4);
  config.dbcs = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = RtmConfig::Paper(4);
  config.domains_per_dbc = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = RtmConfig::Paper(4);
  config.port_offsets = {300};  // beyond 256 domains
  config.ports_per_track = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = RtmConfig::Paper(4);
  config.ports_per_track = 2;
  config.port_offsets = {5, 5};
  EXPECT_THROW(config.Validate(), std::invalid_argument);

  config = RtmConfig::Paper(4);
  config.ports_per_track = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

// ----------------------------------------------------------- DbcState ----

TEST(DbcState, FirstAccessFreeConvention) {
  DbcState dbc(16, {0}, /*start_at_zero=*/false);
  EXPECT_FALSE(dbc.alignment().has_value());
  EXPECT_EQ(dbc.Access(7), 0u);  // free
  EXPECT_EQ(dbc.Access(3), 4u);
  EXPECT_EQ(dbc.Access(3), 0u);
  EXPECT_EQ(dbc.total_shifts(), 4u);
}

TEST(DbcState, ZeroAlignedConvention) {
  DbcState dbc(16, {0}, /*start_at_zero=*/true);
  ASSERT_TRUE(dbc.alignment().has_value());
  EXPECT_EQ(dbc.Access(7), 7u);  // pays the distance from domain 0
  EXPECT_EQ(dbc.Access(2), 5u);
}

TEST(DbcState, SinglePortDistanceIsAbsoluteDifference) {
  DbcState dbc(100, {0}, false);
  (void)dbc.Access(10);
  EXPECT_EQ(dbc.Access(25), 15u);
  EXPECT_EQ(dbc.Access(5), 20u);
}

TEST(DbcState, MultiPortPicksNearestPort) {
  // Ports at 0 and 8 on a 16-domain track.
  DbcState dbc(16, {0, 8}, true);
  // Domain 9 via port at 8: alignment 1, one shift (vs 9 via port 0).
  EXPECT_EQ(dbc.Access(9), 1u);
  // Domain 1 from alignment 1: port 0 -> target 1 - 0 = 1, zero shifts.
  EXPECT_EQ(dbc.Access(1), 0u);
}

TEST(DbcState, MultiPortTieBreaksTowardLowerPortIndex) {
  DbcState dbc(16, {0, 8}, true);
  // Domain 4: port0 target 4, port1 target -4; both distance 4 from 0.
  const auto plan = dbc.Plan(4);
  EXPECT_EQ(plan.shifts, 4u);
  EXPECT_EQ(plan.port_index, 0u);
}

TEST(DbcState, TracksMaxExcursion) {
  DbcState dbc(32, {0}, true);
  (void)dbc.Access(20);
  (void)dbc.Access(3);
  EXPECT_EQ(dbc.max_excursion(), 20u);
}

TEST(DbcState, ResetRestoresInitialConvention) {
  DbcState dbc(16, {0}, false);
  (void)dbc.Access(5);
  (void)dbc.Access(9);
  dbc.Reset();
  EXPECT_EQ(dbc.total_shifts(), 0u);
  EXPECT_EQ(dbc.Access(9), 0u);  // free again
}

TEST(DbcState, RejectsBadConstructionAndAccess) {
  EXPECT_THROW(DbcState(0, {0}, false), std::invalid_argument);
  EXPECT_THROW(DbcState(8, {}, false), std::invalid_argument);
  EXPECT_THROW(DbcState(8, {9}, false), std::invalid_argument);
  DbcState dbc(8, {0}, false);
  EXPECT_THROW((void)dbc.Plan(8), std::out_of_range);
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
