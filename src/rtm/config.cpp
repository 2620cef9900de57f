#include "rtm/config.h"

#include <set>
#include <stdexcept>

namespace rtmp::rtm {

std::vector<std::uint32_t> RtmConfig::EffectivePortOffsets() const {
  if (!port_offsets.empty()) return port_offsets;
  // Evenly spread P ports so each serves a K/P segment centred on it:
  // offsets (2i+1) * K / (2P), i.e. one port at K/2 rounded down for P=1.
  // For the single-port paper setup the exact offset is irrelevant to shift
  // counts (only distances matter); we use 0 to match the cost model's
  // "position = offset" convention.
  std::vector<std::uint32_t> offsets;
  offsets.reserve(ports_per_track);
  if (ports_per_track == 1) {
    offsets.push_back(0);
    return offsets;
  }
  for (unsigned i = 0; i < ports_per_track; ++i) {
    offsets.push_back(static_cast<std::uint32_t>(
        (2ULL * i + 1) * domains_per_dbc / (2ULL * ports_per_track)));
  }
  return offsets;
}

void RtmConfig::Validate() const {
  if (dbcs == 0) {
    throw std::invalid_argument("RtmConfig: DBC count must be positive");
  }
  if (domains_per_dbc == 0) {
    throw std::invalid_argument("RtmConfig: domains_per_dbc must be positive");
  }
  if (ports_per_track == 0) {
    throw std::invalid_argument("RtmConfig: need at least one access port");
  }
  const auto offsets = EffectivePortOffsets();
  if (offsets.size() != ports_per_track) {
    throw std::invalid_argument(
        "RtmConfig: port_offsets size must equal ports_per_track");
  }
  std::set<std::uint32_t> unique;
  for (const auto offset : offsets) {
    if (offset >= domains_per_dbc) {
      throw std::invalid_argument("RtmConfig: port offset out of range");
    }
    if (!unique.insert(offset).second) {
      throw std::invalid_argument("RtmConfig: duplicate port offset");
    }
  }
}

RtmConfig RtmConfig::Paper(unsigned dbcs) {
  RtmConfig config;
  config.dbcs = dbcs;
  config.domains_per_dbc = destiny::PaperDomainsPerDbc(dbcs);
  config.ports_per_track = 1;
  config.initial_alignment = InitialAlignment::kFirstAccess;
  config.params = destiny::PaperTableOne(dbcs);
  config.Validate();
  return config;
}

}  // namespace rtmp::rtm
