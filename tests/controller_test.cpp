#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <utility>

#include "rtm/controller.h"
#include "trace/access_sequence.h"

namespace rtmp::rtm {
namespace {

std::vector<TimedRequest> BackToBack(
    std::initializer_list<std::pair<unsigned, std::uint32_t>> accesses) {
  std::vector<TimedRequest> requests;
  for (const auto& [dbc, domain] : accesses) {
    requests.push_back(TimedRequest{0.0, dbc, domain,
                                    trace::AccessType::kRead});
  }
  return requests;
}

TEST(Controller, SerialModeMatchesDeviceRuntime) {
  const RtmConfig config = RtmConfig::Paper(4);
  const auto requests =
      BackToBack({{0, 10}, {1, 50}, {0, 30}, {2, 5}, {1, 50}, {0, 10}});

  RtmController controller(config, ControllerConfig{});
  (void)controller.Execute(requests);

  // Independent oracle: each DBC's last domain (its first access free)
  // plus per-access latencies.
  std::vector<std::optional<std::uint32_t>> last(config.total_dbcs());
  std::uint64_t shifts = 0;
  double runtime_ns = 0.0;
  for (const auto& r : requests) {
    const std::uint64_t s =
        last[r.dbc].has_value()
            ? static_cast<std::uint64_t>(std::llabs(
                  static_cast<std::int64_t>(*last[r.dbc]) - r.domain))
            : 0;
    last[r.dbc] = r.domain;
    shifts += s;
    runtime_ns += static_cast<double>(s) * config.params.shift_latency_ns +
                  config.params.read_latency_ns;
  }

  EXPECT_GT(shifts, 0u);
  EXPECT_EQ(controller.stats().shifts, shifts);
  EXPECT_DOUBLE_EQ(controller.stats().makespan_ns, runtime_ns);
  EXPECT_DOUBLE_EQ(controller.stats().channel_busy_ns, runtime_ns);
  EXPECT_DOUBLE_EQ(controller.stats().hidden_shift_ns, 0.0);
}

TEST(Controller, AccumulatesStatsAndLatency) {
  RtmController controller(RtmConfig::Paper(4), ControllerConfig{});
  const auto timings =
      controller.Execute({{0.0, 0, 10, trace::AccessType::kRead},
                          {0.0, 0, 13, trace::AccessType::kWrite}});
  EXPECT_EQ(timings[0].shifts, 0u);  // first access free in paper convention
  EXPECT_DOUBLE_EQ(timings[0].finish_ns - timings[0].shift_start_ns, 0.84);
  EXPECT_EQ(timings[1].shifts, 3u);
  EXPECT_DOUBLE_EQ(timings[1].finish_ns - timings[1].shift_start_ns,
                   3 * 0.92 + 1.14);
  EXPECT_EQ(controller.stats().requests, 2u);
  EXPECT_EQ(controller.stats().reads, 1u);
  EXPECT_EQ(controller.stats().writes, 1u);
  EXPECT_EQ(controller.stats().shifts, 3u);
}

TEST(Controller, DbcsAreIndependent) {
  RtmController controller(RtmConfig::Paper(4), ControllerConfig{});
  const auto timings = controller.Execute(BackToBack({{0, 100}, {1, 5}}));
  EXPECT_EQ(timings[1].shifts, 0u);
  // Returning to DBC 0's current position costs nothing.
  EXPECT_EQ(controller.Execute(BackToBack({{0, 100}}))[0].shifts, 0u);
}

TEST(Controller, ZeroAlignmentConventionPaysFirstAccess) {
  RtmConfig config = RtmConfig::Paper(2);
  config.initial_alignment = InitialAlignment::kZero;
  RtmController controller(config, ControllerConfig{});
  EXPECT_EQ(controller.Execute(BackToBack({{0, 25}}))[0].shifts, 25u);
}

/// The per-request shift counts of `requests` on `controller`.
std::vector<std::uint64_t> ShiftsOf(
    RtmController& controller,
    std::initializer_list<std::pair<unsigned, std::uint32_t>> accesses) {
  std::vector<std::uint64_t> shifts;
  for (const RequestTiming& timing : controller.Execute(BackToBack(accesses))) {
    shifts.push_back(timing.shifts);
  }
  return shifts;
}

using Shifts = std::vector<std::uint64_t>;

TEST(Controller, ShiftCountIsTheDomainDistanceInEachDbc) {
  RtmConfig config = RtmConfig::Paper(2);
  RtmController first_free(config, ControllerConfig{});
  EXPECT_EQ(ShiftsOf(first_free, {{0, 7}, {0, 3}, {0, 3}}),
            (Shifts{0, 4, 0}));
  EXPECT_EQ(ShiftsOf(first_free, {{1, 10}, {1, 25}, {1, 5}}),
            (Shifts{0, 15, 20}));
  EXPECT_EQ(first_free.stats().shifts, 39u);

  // kZero: every track starts at domain 0, and Reset puts it back there.
  config.initial_alignment = InitialAlignment::kZero;
  RtmController zero(config, ControllerConfig{});
  EXPECT_EQ(ShiftsOf(zero, {{0, 7}, {0, 2}, {1, 4}}), (Shifts{7, 5, 4}));
  zero.Reset();
  EXPECT_EQ(ShiftsOf(zero, {{0, 7}, {1, 0}}), (Shifts{7, 0}));
}

TEST(Controller, ProactiveAlignmentHidesShiftsBehindOtherDbcs) {
  const RtmConfig config = RtmConfig::Paper(4);
  // Ping-pong between two DBCs with long jumps inside each: while DBC0's
  // access is on the channel, DBC1 can pre-shift, and vice versa.
  std::vector<TimedRequest> requests;
  for (int i = 0; i < 20; ++i) {
    requests.push_back(
        TimedRequest{0.0, 0u, static_cast<std::uint32_t>(i % 2 ? 200 : 10),
                     trace::AccessType::kRead});
    requests.push_back(
        TimedRequest{0.0, 1u, static_cast<std::uint32_t>(i % 2 ? 20 : 180),
                     trace::AccessType::kRead});
  }

  RtmController serial(config, ControllerConfig{});
  (void)serial.Execute(requests);
  ControllerConfig proactive_config;
  proactive_config.proactive_alignment = true;
  proactive_config.lookahead = 1;
  RtmController proactive(config, proactive_config);
  (void)proactive.Execute(requests);

  EXPECT_EQ(serial.stats().shifts, proactive.stats().shifts);
  EXPECT_LT(proactive.stats().makespan_ns, serial.stats().makespan_ns);
  EXPECT_GT(proactive.stats().hidden_shift_ns, 0.0);
}

TEST(Controller, ProactiveNeverSlowerThanSerial) {
  const RtmConfig config = RtmConfig::Paper(8);
  std::vector<TimedRequest> requests;
  std::uint32_t domain = 3;
  for (int i = 0; i < 100; ++i) {
    domain = (domain * 37 + 11) % config.domains_per_dbc;
    requests.push_back(TimedRequest{0.0, static_cast<unsigned>(i % 8), domain,
                                    i % 3 == 0 ? trace::AccessType::kWrite
                                               : trace::AccessType::kRead});
  }
  RtmController serial(config, ControllerConfig{});
  (void)serial.Execute(requests);
  for (const unsigned lookahead : {0u, 1u, 2u, 8u}) {
    ControllerConfig pc;
    pc.proactive_alignment = true;
    pc.lookahead = lookahead;
    RtmController proactive(config, pc);
    (void)proactive.Execute(requests);
    EXPECT_LE(proactive.stats().makespan_ns,
              serial.stats().makespan_ns + 1e-9)
        << lookahead;
    EXPECT_EQ(proactive.stats().shifts, serial.stats().shifts) << lookahead;
  }
}

TEST(Controller, DeeperLookaheadHidesAtLeastAsMuch) {
  const RtmConfig config = RtmConfig::Paper(4);
  std::vector<TimedRequest> requests;
  std::uint32_t domain = 7;
  for (int i = 0; i < 60; ++i) {
    domain = (domain * 53 + 29) % config.domains_per_dbc;
    requests.push_back(TimedRequest{0.0, static_cast<unsigned>((i * 7) % 4),
                                    domain, trace::AccessType::kRead});
  }
  double last_hidden = -1.0;
  for (const unsigned lookahead : {0u, 1u, 4u}) {
    ControllerConfig pc;
    pc.proactive_alignment = true;
    pc.lookahead = lookahead;
    RtmController controller(config, pc);
    (void)controller.Execute(requests);
    EXPECT_GE(controller.stats().hidden_shift_ns, last_hidden) << lookahead;
    last_hidden = controller.stats().hidden_shift_ns;
  }
}

TEST(Controller, HiddenPlusExposedEqualsShiftBusy) {
  const RtmConfig config = RtmConfig::Paper(4);
  ControllerConfig pc;
  pc.proactive_alignment = true;
  RtmController controller(config, pc);
  const auto timings = controller.Execute(
      BackToBack({{0, 100}, {1, 200}, {0, 20}, {1, 10}, {2, 99}}));
  double hidden = 0.0;
  for (const auto& t : timings) hidden += t.hidden_shift_ns;
  EXPECT_DOUBLE_EQ(hidden, controller.stats().hidden_shift_ns);
  EXPECT_LE(controller.stats().hidden_shift_ns,
            controller.stats().shift_busy_ns + 1e-9);
  EXPECT_NEAR(controller.stats().hidden_shift_ns +
                  controller.stats().exposed_shift_ns,
              controller.stats().shift_busy_ns, 1e-9);
}

TEST(Controller, ChannelBusyNeverExceedsMakespan) {
  // Regression: the proactive path used to book exposed shift time (a DBC
  // occupancy) on the shared channel, reporting > 100% channel utilization
  // on shift-heavy single-DBC streams.
  const RtmConfig config = RtmConfig::Paper(4);
  std::vector<TimedRequest> requests;
  std::uint32_t domain = 1;
  for (int i = 0; i < 80; ++i) {
    // All on one DBC with long jumps: nothing can hide, shifts dominate.
    domain = (domain * 61 + 17) % config.domains_per_dbc;
    requests.push_back(TimedRequest{0.0, 0u, domain,
                                    trace::AccessType::kRead});
  }
  for (const bool proactive : {false, true}) {
    for (const unsigned lookahead : {0u, 1u, 4u}) {
      ControllerConfig pc;
      pc.proactive_alignment = proactive;
      pc.lookahead = lookahead;
      RtmController controller(config, pc);
      (void)controller.Execute(requests);
      const ControllerStats& stats = controller.stats();
      EXPECT_LE(stats.channel_busy_ns, stats.makespan_ns + 1e-9)
          << "proactive=" << proactive << " lookahead=" << lookahead;
      EXPECT_NEAR(stats.hidden_shift_ns + stats.exposed_shift_ns,
                  stats.shift_busy_ns, 1e-9);
      if (!proactive) {
        // Serial mode: every shift stalls the requester on the channel.
        EXPECT_DOUBLE_EQ(stats.exposed_shift_ns, stats.shift_busy_ns);
        EXPECT_DOUBLE_EQ(stats.hidden_shift_ns, 0.0);
      } else {
        // Proactive mode: shifts occupy the DBC, so the channel is busy
        // for exactly the access time of this all-read stream.
        EXPECT_NEAR(stats.channel_busy_ns,
                    static_cast<double>(requests.size()) *
                        config.params.read_latency_ns,
                    1e-6);
      }
    }
  }
}

TEST(Controller, RespectsArrivalTimes) {
  const RtmConfig config = RtmConfig::Paper(2);
  std::vector<TimedRequest> requests{
      {0.0, 0, 5, trace::AccessType::kRead},
      {1000.0, 0, 5, trace::AccessType::kRead},  // arrives after a gap
  };
  RtmController controller(config, ControllerConfig{});
  const auto timings = controller.Execute(requests);
  EXPECT_GE(timings[1].access_start_ns, 1000.0);
}

TEST(Controller, RejectsDecreasingArrivals) {
  RtmController controller(RtmConfig::Paper(2), ControllerConfig{});
  std::vector<TimedRequest> bad{
      {10.0, 0, 1, trace::AccessType::kRead},
      {5.0, 0, 2, trace::AccessType::kRead},
  };
  EXPECT_THROW((void)controller.Execute(bad), std::invalid_argument);
}

TEST(Controller, RejectsOutOfRangeCoordinates) {
  RtmController controller(RtmConfig::Paper(2), ControllerConfig{});
  EXPECT_THROW((void)controller.Execute(BackToBack({{2, 0}})),
               std::out_of_range);
  try {
    (void)controller.Execute(BackToBack({{0, 512}}));
    ADD_FAILURE() << "domain 512 of 512 was accepted";
  } catch (const std::out_of_range& error) {
    EXPECT_STREQ(error.what(), "RtmController: domain out of range");
  }
}

TEST(Controller, EnergyUsesMakespanForLeakage) {
  const RtmConfig config = RtmConfig::Paper(2);
  RtmController controller(config, ControllerConfig{});
  (void)controller.Execute(BackToBack({{0, 10}, {1, 400}, {0, 200}}));
  const EnergyBreakdown energy = controller.Energy();
  EXPECT_DOUBLE_EQ(energy.leakage_pj,
                   config.params.leakage_mw * controller.stats().makespan_ns);
  EXPECT_DOUBLE_EQ(energy.read_write_pj, 3 * 2.26);
  EXPECT_DOUBLE_EQ(energy.shift_pj, 190 * 2.18);
}

TEST(Controller, ResetRestoresCleanState) {
  RtmController controller(RtmConfig::Paper(2), ControllerConfig{});
  (void)controller.Execute(BackToBack({{0, 100}, {0, 5}}));
  controller.Reset();
  EXPECT_EQ(controller.stats().requests, 0u);
  EXPECT_EQ(controller.stats().reads, 0u);
  EXPECT_EQ(controller.stats().shifts, 0u);
  EXPECT_DOUBLE_EQ(controller.stats().makespan_ns, 0.0);
  EXPECT_DOUBLE_EQ(controller.Energy().total_pj(), 0.0);
  const auto timings = controller.Execute(BackToBack({{0, 100}}));
  EXPECT_EQ(timings[0].shifts, 0u);  // first access free again
}

}  // namespace
}  // namespace rtmp::rtm
