// Pins RtmController's statistics bit for bit over a seeded grid of
// request streams, so any rewrite of the request loop must reproduce every
// counter and every double (compared through std::bit_cast) exactly.
//
// Grid axes: serial and proactive alignment; lookahead 0, 1 and 3; a
// private channel and a SharedChannel that two controllers book in
// alternating batches; 1 and 2 ports; kZero and kFirstAccess initial
// alignment; all-zero and rising arrivals. Each stream is cut into
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

RtmConfig Device(unsigned ports, InitialAlignment alignment) {
  RtmConfig config = RtmConfig::Paper(kDbcs);
  config.domains_per_dbc = kDomains;
  config.ports_per_track = ports;
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
// {false, true} x ports {1, 2} x alignment {kZero, kFirstAccess} x rising
// {false, true}, the last axis fastest.
constexpr PinnedRow kGridRows[] = {
    {12587u, 0x67c401766c1a8f25ULL},
    {12927u, 0xaf1d024fb0e0bde6ULL},
    {12389u, 0x57951b4618407ca0ULL},
    {12453u, 0x7fed5871b3996233ULL},
    {6256u, 0xdffaf3b9f5e638bfULL},
    {6297u, 0xdc46013ac02bda1fULL},
    {6064u, 0xa55029970656413eULL},
    {6119u, 0xd12edb7b3cb93434ULL},
    {26207u, 0x7f462ed5d7b411f5ULL},
    {26449u, 0x4c43e7998682472cULL},
    {24328u, 0x6662fe8059eea52aULL},
    {25534u, 0x795400334e33bd47ULL},
    {12360u, 0xdc61b7dd7edef87aULL},
    {11901u, 0xa1a3639b6b14d9a9ULL},
    {12032u, 0x78b9f4c23aa5cd9cULL},
    {12388u, 0x305ffd733e3504bfULL},
    {12499u, 0x812678246bfbdfb2ULL},
    {12836u, 0xc4a27c66f1773dd7ULL},
    {12488u, 0x340e7539a569e17cULL},
    {12396u, 0x7254d431b0d45997ULL},
    {6520u, 0x94bf99c6edaca575ULL},
    {5991u, 0x7e9458de5b775865ULL},
    {6008u, 0x91688fc693d224baULL},
    {6400u, 0xe90d6c1e539f3477ULL},
    {25622u, 0xbaf14fccb9ac1afeULL},
    {26389u, 0x662214e4bcf2096ULL},
    {25583u, 0xda051221b6447cf4ULL},
    {25154u, 0x124a8c7ac52cf678ULL},
    {11740u, 0x9ee6580e3b852166ULL},
    {12513u, 0xf06e93418168e864ULL},
    {12543u, 0x6f08617ba5659a7aULL},
    {11843u, 0xd36534179ddc20cfULL},
    {13105u, 0xb68edbad76a9c8d5ULL},
    {12315u, 0x5bf88251a17638b7ULL},
    {13007u, 0x9a05be330be34d03ULL},
    {12697u, 0x9ebe811846a40d8bULL},
    {5818u, 0xb4d7604625562111ULL},
    {6183u, 0x2847a232ddce9e9fULL},
    {6020u, 0x97f753e1a4bfeb5eULL},
    {6378u, 0x98bd2c4690d7c120ULL},
    {26219u, 0xf43e6ad6344de34eULL},
    {27145u, 0xe19658a0dfeedf5eULL},
    {25494u, 0x86eb68994c1891d3ULL},
    {25954u, 0xfb3e170fe8510a3bULL},
    {12391u, 0x290dbe8d78c50556ULL},
    {12156u, 0x7a9d779ae27d59cdULL},
    {12369u, 0x620222e5ce5e84b0ULL},
    {12723u, 0xad0fe144d0cdc29aULL},
    {12608u, 0x8fa3d6554c7b1abbULL},
    {12432u, 0xa895ed985bb6bf9dULL},
    {12714u, 0x5f8155b624341e71ULL},
    {13179u, 0xbb14764eb556c21fULL},
    {6004u, 0x7a20dcfc530f0ef1ULL},
    {6489u, 0xfadc344d1400bff6ULL},
    {6448u, 0x43b6bffa60fa5764ULL},
    {6056u, 0xe866d99c77ed51b1ULL},
    {25443u, 0x52bde6f70bbeed30ULL},
    {25706u, 0x9b56eafe966f11f7ULL},
    {24738u, 0x45e88e8aca31a10eULL},
    {25527u, 0xfe107535ebc6b625ULL},
    {12166u, 0x7758c9ec94573c41ULL},
    {12644u, 0x2425b22e5f3f22deULL},
    {11914u, 0x969c6956fbeb68c9ULL},
    {12417u, 0x7295733bd8ff9068ULL},
    {12298u, 0xb79ea93851c71920ULL},
    {12971u, 0xd0cc1ee1d2c37fe2ULL},
    {13284u, 0x36209bd0b0166a51ULL},
    {12363u, 0x4cdb95364c46795aULL},
    {6089u, 0x82be2ff67a46e950ULL},
    {6324u, 0x1fa1b53a4af326acULL},
    {6016u, 0x5a7740ec55434b7cULL},
    {5849u, 0xf7600b9517ce80b3ULL},
    {25411u, 0xf74a915913081d1cULL},
    {26244u, 0x65940b99a89c8aeULL},
    {25680u, 0x18e999f8f136b34cULL},
    {26030u, 0xdaffb231f464c915ULL},
    {12232u, 0x3f325f52ff2e0f54ULL},
    {12313u, 0xd585dbb7b38af65cULL},
    {12049u, 0x34cc2e517285fa0bULL},
    {12376u, 0x4c83fd0eaffe22feULL},
    {12981u, 0xcf8e66bb17b9f441ULL},
    {13067u, 0xf2866c3a23d576ULL},
    {13078u, 0x8aeb103e66b62ef4ULL},
    {12753u, 0xd65f4ab5757749d8ULL},
    {6393u, 0xa21853c630888c73ULL},
    {6330u, 0x594a8eb4d5dc9593ULL},
    {6166u, 0xf7ac318dd15be661ULL},
    {6424u, 0xc8e20b4d63bad20ULL},
    {26157u, 0xf956dae0a5262e44ULL},
    {25137u, 0xe4a19791ab7b07b8ULL},
    {24808u, 0xe16b1587a4f32231ULL},
    {24523u, 0xb6080d32562bbd07ULL},
    {12982u, 0x1c69bb566a2e85dbULL},
    {12566u, 0x6c4a0a32d52802f8ULL},
    {12333u, 0x8c0679a28961ee54ULL},
    {12387u, 0xedf6cd00b91a4806ULL},
};

TEST(ControllerPin, SeededGridIsBitIdentical) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 1;
  for (const bool proactive : {false, true}) {
    for (const unsigned lookahead : {0u, 1u, 3u}) {
      for (const bool shared : {false, true}) {
        for (const unsigned ports : {1u, 2u}) {
          for (const InitialAlignment alignment :
               {InitialAlignment::kZero, InitialAlignment::kFirstAccess}) {
            for (const bool rising : {false, true}) {
              ++seed;
              SharedChannel channel;
              ControllerConfig controller;
              controller.proactive_alignment = proactive;
              controller.lookahead = lookahead;
              controller.shared_channel = shared ? &channel : nullptr;
              const RtmConfig device = Device(ports, alignment);
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
        }
      }
    }
  }
  ExpectPinned(rows, kGridRows, "controller grid statistics");
}

// One row per (proactive, lookahead, ports): {false, 1}, {true, 0},
// {true, 1}, {true, 3}, each with ports {1, 2}.
constexpr PinnedRow kInterleavedRows[] = {
    {12644u, 0x39f5744db34315a4ULL},
    {6126u, 0x1dd94555a125897bULL},
    {12586u, 0x33f28ee2241ba609ULL},
    {6203u, 0x1ace7e3db2784696ULL},
    {12702u, 0x2464cb477c62419fULL},
    {6205u, 0xb9dbece03904d7b9ULL},
    {12699u, 0xd72751377bd0c2e4ULL},
    {6324u, 0x17a082126fc67bf3ULL},
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
    for (const unsigned ports : {1u, 2u}) {
      ++seed;
      ControllerConfig controller;
      controller.proactive_alignment = mode.proactive;
      controller.lookahead = mode.lookahead;
      RtmController device(Device(ports, InitialAlignment::kFirstAccess),
                           controller);
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
    }
  }
  ExpectPinned(rows, kInterleavedRows, "interleaved Execute/ExecuteBatch");
}

/// The three per-request checks, each planted at request 30 of a
/// 50-request batch.
enum class Fault { kArrival, kDbc, kDomain };

// One row per (mode in kModes) x (ports 1, 2) x (fault kArrival, kDbc,
// kDomain): statistics after the throw and after a follow-up batch.
constexpr PinnedRow kThrowRows[] = {
    {2141u, 0xede8a67b24d134b8ULL},
    {2134u, 0xbfa00e7f347730dbULL},
    {2213u, 0xf0c4650abebd67f2ULL},
    {1036u, 0x606f212dee31570eULL},
    {1131u, 0xcc7e635613c48ddfULL},
    {873u, 0x575f604b7c9b5dd6ULL},
    {2279u, 0xd12fe67cd6757527ULL},
    {2261u, 0xe0e3267a1a40f2dULL},
    {2231u, 0xa0e71d6e4a00d8acULL},
    {988u, 0x8bfad20b7db68ef4ULL},
    {916u, 0xf65a9b111c7d177ULL},
    {1157u, 0xd55550abff873513ULL},
    {1998u, 0x57e8785616c9391dULL},
    {2005u, 0xc0308de9c4d8c1ecULL},
    {2260u, 0xde2711c8ae794e44ULL},
    {1051u, 0xe7664142a05f0628ULL},
    {865u, 0x7cc640d092e713f2ULL},
    {1043u, 0x42b81239415ee1a0ULL},
    {2108u, 0xa7160a899361a07cULL},
    {2307u, 0x8129de7658c00d9bULL},
    {2293u, 0xa7ab69ea6b9a62ceULL},
    {930u, 0x1ac7531fe53be665ULL},
    {791u, 0xf827693ed449e025ULL},
    {1119u, 0x7647b9bf9f3b269ULL},
};

TEST(ControllerPin, ThrowInMidBatchBooksThePrefix) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 700;
  for (const ModeCase mode : kModes) {
    for (const unsigned ports : {1u, 2u}) {
      for (const Fault fault : {Fault::kArrival, Fault::kDbc,
                                Fault::kDomain}) {
        ++seed;
        ControllerConfig controller;
        controller.proactive_alignment = mode.proactive;
        controller.lookahead = mode.lookahead;
        RtmController device(Device(ports, InitialAlignment::kZero),
                             controller);
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
                           : "DbcState: domain out of range");
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
    }
  }
  ExpectPinned(rows, kThrowRows, "mid-batch throw prefix");
}

// One row per (mode in kModes) x (ports 1, 2) x (shared false, true).
constexpr PinnedRow kResetRows[] = {
    {13351u, 0x3047c16ee3662577ULL},
    {12466u, 0x32712f9a9f73ced7ULL},
    {6230u, 0x28819653a0ee95f3ULL},
    {6278u, 0x55d6bb73da6e76a8ULL},
    {12758u, 0xdb97cb5e1746d6d0ULL},
    {12302u, 0x98d76591efaad0e6ULL},
    {5929u, 0xde1d8d3b0d22ac3cULL},
    {6373u, 0x393f6a2a9ce1a59fULL},
    {11820u, 0xced0f69c6affb47dULL},
    {12963u, 0x7d1e8d4b8825ca0ULL},
    {6084u, 0x3e6ed5f75f3563d2ULL},
    {5986u, 0xd4aadf0f50adae69ULL},
    {12865u, 0x256c88778f555cb0ULL},
    {12389u, 0x52649bc6a931fd29ULL},
    {6158u, 0x5e13e23fe890062eULL},
    {5918u, 0x4f72aa721aabc3edULL},
};

TEST(ControllerPin, ResetReturnsToTheConstructionState) {
  std::vector<PinnedRow> rows;
  std::uint64_t seed = 900;
  for (const ModeCase mode : kModes) {
    for (const unsigned ports : {1u, 2u}) {
      for (const bool shared : {false, true}) {
        ++seed;
        SharedChannel channel;
        ControllerConfig controller;
        controller.proactive_alignment = mode.proactive;
        controller.lookahead = mode.lookahead;
        controller.shared_channel = shared ? &channel : nullptr;
        const RtmConfig device_config =
            Device(ports, InitialAlignment::kFirstAccess);
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
    }
  }
  ExpectPinned(rows, kResetRows, "statistics after Reset");
}

}  // namespace
}  // namespace rtmp::rtm
