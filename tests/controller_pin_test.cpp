// Pins RtmController's statistics bit for bit over a seeded grid of
// request streams, so any rewrite of the request loop must reproduce every
// counter and every double (compared through std::bit_cast) exactly.
//
// Grid axes: serial and proactive alignment; lookahead 0, 1 and 3; a
// private channel and a SharedChannel that two controllers book in
// alternating batches; kZero and kFirstAccess initial alignment; all-zero
// and rising arrivals. Each stream is cut into
// batches of 1 to 9 requests, so the per-batch lookahead window is
// restarted often. Three behaviours are pinned on their own: Execute and
// ExecuteBatch interleaved on one controller, a throw in mid-batch (the
// prefix before the bad request stays booked) and Reset.
//
// Each row pins the total shift count (readable) and an FNV-1a hash over
// the bits of every ControllerStats field. On a mismatch the test prints
// the measured rows in the array's own syntax.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtm/controller.h"
#include "util/rng.h"

namespace rtmp::rtm {
namespace {

constexpr unsigned kDbcs = 4;
constexpr unsigned kDomains = 64;
constexpr std::size_t kStreamLength = 600;

/// FNV-1a over 64-bit words.
class Hash {
 public:
  void Add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value_ ^= (word >> (8 * byte)) & 0xFF;
      value_ *= 0x100000001B3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(const ControllerStats& stats) {
    Add(stats.requests);
    Add(stats.reads);
    Add(stats.writes);
    Add(stats.shifts);
    Add(stats.makespan_ns);
    Add(stats.channel_busy_ns);
    Add(stats.shift_busy_ns);
    Add(stats.hidden_shift_ns);
    Add(stats.exposed_shift_ns);
  }
  void Add(const RequestTiming& timing) {
    Add(timing.shift_start_ns);
    Add(timing.access_start_ns);
    Add(timing.finish_ns);
    Add(timing.shifts);
    Add(timing.hidden_shift_ns);
  }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0xCBF29CE484222325ULL;
};

struct PinnedRow {
  std::uint64_t shifts;
  std::uint64_t hash;
};

std::vector<TimedRequest> MakeStream(std::uint64_t seed, bool rising) {
  util::Rng rng(seed);
  std::vector<TimedRequest> requests;
  double arrival = 0.0;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    TimedRequest request;
    request.dbc = static_cast<unsigned>(rng.NextBelow(kDbcs));
    request.domain = static_cast<std::uint32_t>(rng.NextBelow(kDomains));
    request.type = rng.NextBelow(4) == 0 ? trace::AccessType::kWrite
                                         : trace::AccessType::kRead;
    if (rising) arrival += 0.37 * static_cast<double>(rng.NextBelow(6));
    request.arrival_ns = arrival;
    requests.push_back(request);
  }
  return requests;
}

RtmConfig Device(InitialAlignment alignment) {
  RtmConfig config = RtmConfig::Paper(kDbcs);
  config.domains_per_dbc = kDomains;
  config.initial_alignment = alignment;
  return config;
}

/// Feeds `requests` in seeded batches of 1..9 requests.
void FeedInBatches(RtmController& controller,
                   const std::vector<TimedRequest>& requests,
                   util::Rng& cuts) {
  const std::span<const TimedRequest> all(requests);
  std::size_t i = 0;
  while (i < all.size()) {
    const std::size_t take =
        std::min<std::size_t>(1 + cuts.NextBelow(9), all.size() - i);
    controller.ExecuteBatch(all.subspan(i, take));
    i += take;
  }
}

std::string Table(const std::vector<PinnedRow>& rows) {
  std::ostringstream table;
  for (const PinnedRow& row : rows) {
    table << "    {" << row.shifts << "u, 0x" << std::hex << row.hash
          << std::dec << "ULL},\n";
  }
  return table.str();
}

void ExpectPinned(const std::vector<PinnedRow>& measured,
                  std::span<const PinnedRow> pinned, const char* what) {
  bool same = measured.size() == pinned.size();
  for (std::size_t r = 0; same && r < measured.size(); ++r) {
    same = measured[r].shifts == pinned[r].shifts &&
           measured[r].hash == pinned[r].hash;
  }
  if (!same) {
    ADD_FAILURE() << what << " moved; measured rows:\n" << Table(measured);
  }
}

// Row order: proactive {false, true} x lookahead {0, 1, 3} x shared
// {false, true} x alignment {kZero, kFirstAccess} x rising {false, true},
// the last axis fastest. Every seed is the one its row was pinned with when
// the grid also had a two-port axis: the seeds of those rows are skipped.
constexpr PinnedRow kGridRows[] = {
    {12587u, 0x67c401766c1a8f25ULL},
    {12927u, 0xaf1d024fb0e0bde6ULL},
    {12389u, 0x57951b4618407ca0ULL},
    {12453u, 0x7fed5871b3996233ULL},
    {26207u, 0x7f462ed5d7b411f5ULL},
    {26449u, 0x4c43e7998682472cULL},
    {24328u, 0x6662fe8059eea52aULL},
    {25534u, 0x795400334e33bd47ULL},
    {12499u, 0x812678246bfbdfb2ULL},
    {12836u, 0xc4a27c66f1773dd7ULL},
    {12488u, 0x340e7539a569e17cULL},
    {12396u, 0x7254d431b0d45997ULL},
    {25622u, 0xbaf14fccb9ac1afeULL},
    {26389u, 0x662214e4bcf2096ULL},
    {25583u, 0xda051221b6447cf4ULL},
    {25154u, 0x124a8c7ac52cf678ULL},
    {13105u, 0xb68edbad76a9c8d5ULL},
    {12315u, 0x5bf88251a17638b7ULL},
    {13007u, 0x9a05be330be34d03ULL},
    {12697u, 0x9ebe811846a40d8bULL},
    {26219u, 0xf43e6ad6344de34eULL},
    {27145u, 0xe19658a0dfeedf5eULL},
    {25494u, 0x86eb68994c1891d3ULL},
    {25954u, 0xfb3e170fe8510a3bULL},
    {12608u, 0x8fa3d6554c7b1abbULL},
    {12432u, 0xa895ed985bb6bf9dULL},
    {12714u, 0x5f8155b624341e71ULL},
    {13179u, 0xbb14764eb556c21fULL},
    {25443u, 0x52bde6f70bbeed30ULL},
    {25706u, 0x9b56eafe966f11f7ULL},
    {24738u, 0x45e88e8aca31a10eULL},
    {25527u, 0xfe107535ebc6b625ULL},
    {12298u, 0xb79ea93851c71920ULL},
    {12971u, 0xd0cc1ee1d2c37fe2ULL},
    {13284u, 0x36209bd0b0166a51ULL},
    {12363u, 0x4cdb95364c46795aULL},
    {25411u, 0xf74a915913081d1cULL},
    {26244u, 0x65940b99a89c8aeULL},
    {25680u, 0x18e999f8f136b34cULL},
    {26030u, 0xdaffb231f464c915ULL},
    {12981u, 0xcf8e66bb17b9f441ULL},
    {13067u, 0xf2866c3a23d576ULL},
    {13078u, 0x8aeb103e66b62ef4ULL},
    {12753u, 0xd65f4ab5757749d8ULL},
    {26157u, 0xf956dae0a5262e44ULL},
    {25137u, 0xe4a19791ab7b07b8ULL},
    {24808u, 0xe16b1587a4f32231ULL},
    {24523u, 0xb6080d32562bbd07ULL},
};

TEST(ControllerPin, SeededGridIsBitIdentical) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 1;
  for (const bool proactive : {false, true}) {
    for (const unsigned lookahead : {0u, 1u, 3u}) {
      for (const bool shared : {false, true}) {
        for (const InitialAlignment alignment :
             {InitialAlignment::kZero, InitialAlignment::kFirstAccess}) {
          for (const bool rising : {false, true}) {
            ++seed;
            SharedChannel channel;
            ControllerConfig controller;
            controller.proactive_alignment = proactive;
            controller.lookahead = lookahead;
            controller.shared_channel = shared ? &channel : nullptr;
            const RtmConfig device = Device(alignment);
            RtmController a(device, controller);
            RtmController b(device, controller);
            const auto stream_a = MakeStream(seed, rising);
            const auto stream_b = MakeStream(seed + 1000, rising);
            util::Rng cuts(seed + 2000);
            if (shared) {
              // Two shards alternate batches on one channel timeline.
              const std::span<const TimedRequest> rest_a(stream_a);
              const std::span<const TimedRequest> rest_b(stream_b);
              std::size_t i = 0;
              std::size_t j = 0;
              while (i < rest_a.size() || j < rest_b.size()) {
                if (i < rest_a.size()) {
                  const std::size_t n = std::min<std::size_t>(
                      1 + cuts.NextBelow(9), rest_a.size() - i);
                  a.ExecuteBatch(rest_a.subspan(i, n));
                  i += n;
                }
                if (j < rest_b.size()) {
                  const std::size_t n = std::min<std::size_t>(
                      1 + cuts.NextBelow(9), rest_b.size() - j);
                  b.ExecuteBatch(rest_b.subspan(j, n));
                  j += n;
                }
              }
            } else {
              FeedInBatches(a, stream_a, cuts);
            }
            Hash hash;
            hash.Add(a.stats());
            if (shared) {
              hash.Add(b.stats());
              hash.Add(channel.free_ns());
            }
            const std::uint64_t shifts =
                a.stats().shifts + (shared ? b.stats().shifts : 0);
            rows.push_back({shifts, hash.value()});
          }
        }
        seed += 4;  // the retired two-port rows
      }
    }
  }
  ExpectPinned(rows, kGridRows, "controller grid statistics");
}

// One row per (proactive, lookahead): {false, 1}, {true, 0}, {true, 1},
// {true, 3}. Seeds skip the retired two-port rows, as in the grid.
constexpr PinnedRow kInterleavedRows[] = {
    {12644u, 0x39f5744db34315a4ULL},
    {12586u, 0x33f28ee2241ba609ULL},
    {12702u, 0x2464cb477c62419fULL},
    {12699u, 0xd72751377bd0c2e4ULL},
};

struct ModeCase {
  bool proactive;
  unsigned lookahead;
};
constexpr ModeCase kModes[] = {{false, 1}, {true, 0}, {true, 1}, {true, 3}};

TEST(ControllerPin, ExecuteAndExecuteBatchInterleaved) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 500;
  for (const ModeCase mode : kModes) {
    ++seed;
    ControllerConfig controller;
    controller.proactive_alignment = mode.proactive;
    controller.lookahead = mode.lookahead;
    RtmController device(Device(InitialAlignment::kFirstAccess), controller);
    const auto stream = MakeStream(seed, /*rising=*/true);
    util::Rng cuts(seed + 1);
    Hash hash;
    std::size_t i = 0;
    bool batch = false;
    while (i < stream.size()) {
      const std::size_t take = std::min<std::size_t>(
          1 + cuts.NextBelow(12), stream.size() - i);
      const std::vector<TimedRequest> chunk(stream.begin() + i,
                                            stream.begin() + i + take);
      if (batch) {
        device.ExecuteBatch(chunk);
      } else {
        for (const RequestTiming& timing : device.Execute(chunk)) {
          hash.Add(timing);
        }
      }
      hash.Add(device.stats());
      batch = !batch;
      i += take;
    }
    rows.push_back({device.stats().shifts, hash.value()});
    ++seed;  // the retired two-port row
  }
  ExpectPinned(rows, kInterleavedRows, "interleaved Execute/ExecuteBatch");
}

/// The three per-request checks, each planted at request 30 of a
/// 50-request batch.
enum class Fault { kArrival, kDbc, kDomain };

// One row per (mode in kModes) x (fault kArrival, kDbc, kDomain):
// statistics after the throw and after a follow-up batch. Seeds skip the
// retired two-port rows, as in the grid.
constexpr PinnedRow kThrowRows[] = {
    {2141u, 0xede8a67b24d134b8ULL},
    {2134u, 0xbfa00e7f347730dbULL},
    {2213u, 0xf0c4650abebd67f2ULL},
    {2279u, 0xd12fe67cd6757527ULL},
    {2261u, 0xe0e3267a1a40f2dULL},
    {2231u, 0xa0e71d6e4a00d8acULL},
    {1998u, 0x57e8785616c9391dULL},
    {2005u, 0xc0308de9c4d8c1ecULL},
    {2260u, 0xde2711c8ae794e44ULL},
    {2108u, 0xa7160a899361a07cULL},
    {2307u, 0x8129de7658c00d9bULL},
    {2293u, 0xa7ab69ea6b9a62ceULL},
};

TEST(ControllerPin, ThrowInMidBatchBooksThePrefix) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 700;
  for (const ModeCase mode : kModes) {
    for (const Fault fault :
         {Fault::kArrival, Fault::kDbc, Fault::kDomain}) {
      ++seed;
      ControllerConfig controller;
      controller.proactive_alignment = mode.proactive;
      controller.lookahead = mode.lookahead;
      RtmController device(Device(InitialAlignment::kZero), controller);
      std::vector<TimedRequest> stream = MakeStream(seed, /*rising=*/true);
      std::vector<TimedRequest> batch(stream.begin(), stream.begin() + 50);
      const std::vector<TimedRequest> rest(stream.begin() + 50,
                                           stream.begin() + 120);
      TimedRequest& bad = batch[30];
      // The bad request's own arrival is later than its predecessor's,
      // so the dbc and domain faults fail after the arrival check.
      bad.arrival_ns = batch[29].arrival_ns + 1.5;
      switch (fault) {
        case Fault::kArrival:
          bad.arrival_ns = batch[29].arrival_ns - 1.0;
          break;
        case Fault::kDbc:
          bad.dbc = kDbcs;
          break;
        case Fault::kDomain:
          bad.domain = kDomains;
          break;
      }
      try {
        device.ExecuteBatch(batch);
        ADD_FAILURE() << "bad request was accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_EQ(fault, Fault::kArrival);
        EXPECT_STREQ(error.what(),
                     "RtmController: arrivals must be non-decreasing");
      } catch (const std::out_of_range& error) {
        EXPECT_NE(fault, Fault::kArrival);
        EXPECT_STREQ(error.what(),
                     fault == Fault::kDbc
                         ? "RtmController: DBC index out of range"
                         : "RtmController: domain out of range");
      }
      Hash hash;
      hash.Add(device.stats());
      // The follow-up batch sees the prefix's alignments, DBC and
      // channel timelines and last arrival.
      std::vector<TimedRequest> follow(rest);
      for (TimedRequest& request : follow) request.arrival_ns += 1000.0;
      device.ExecuteBatch(follow);
      hash.Add(device.stats());
      rows.push_back({device.stats().shifts, hash.value()});
    }
    seed += 3;  // the retired two-port rows
  }
  ExpectPinned(rows, kThrowRows, "mid-batch throw prefix");
}

// One row per (mode in kModes) x (shared false, true). Seeds skip the
// retired two-port rows, as in the grid.
constexpr PinnedRow kResetRows[] = {
    {13351u, 0x3047c16ee3662577ULL},
    {12466u, 0x32712f9a9f73ced7ULL},
    {12758u, 0xdb97cb5e1746d6d0ULL},
    {12302u, 0x98d76591efaad0e6ULL},
    {11820u, 0xced0f69c6affb47dULL},
    {12963u, 0x7d1e8d4b8825ca0ULL},
    {12865u, 0x256c88778f555cb0ULL},
    {12389u, 0x52649bc6a931fd29ULL},
};

TEST(ControllerPin, ResetReturnsToTheConstructionState) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 900;
  for (const ModeCase mode : kModes) {
    for (const bool shared : {false, true}) {
      ++seed;
      SharedChannel channel;
      ControllerConfig controller;
      controller.proactive_alignment = mode.proactive;
      controller.lookahead = mode.lookahead;
      controller.shared_channel = shared ? &channel : nullptr;
      const RtmConfig device_config = Device(InitialAlignment::kFirstAccess);
      RtmController device(device_config, controller);
      const auto stream = MakeStream(seed, /*rising=*/true);
      util::Rng cuts(seed + 1);
      FeedInBatches(device, stream, cuts);
      const double channel_before_reset = channel.free_ns();
      device.Reset();
      EXPECT_EQ(device.stats().requests, 0u);
      EXPECT_EQ(device.stats().makespan_ns, 0.0);
      // Reset leaves a shared channel where it was.
      const double channel_after_reset = channel.free_ns();
      EXPECT_EQ(channel_after_reset, channel_before_reset);
      util::Rng cuts_again(seed + 1);
      FeedInBatches(device, stream, cuts_again);
      Hash hash;
      hash.Add(channel_after_reset);
      hash.Add(device.stats());
      hash.Add(channel.free_ns());
      if (!shared) {
        // A private channel: the second run equals a fresh controller's.
        RtmController fresh(device_config, controller);
        util::Rng cuts_fresh(seed + 1);
        FeedInBatches(fresh, stream, cuts_fresh);
        Hash fresh_hash;
        fresh_hash.Add(channel_after_reset);
        fresh_hash.Add(fresh.stats());
        fresh_hash.Add(channel.free_ns());
        EXPECT_EQ(fresh_hash.value(), hash.value());
      }
      rows.push_back({device.stats().shifts, hash.value()});
    }
    seed += 2;  // the retired two-port rows
  }
  ExpectPinned(rows, kResetRows, "statistics after Reset");
}

}  // namespace
}  // namespace rtmp::rtm
