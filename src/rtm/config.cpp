#include "rtm/config.h"

#include <stdexcept>

namespace rtmp::rtm {

void RtmConfig::Validate() const {
  if (dbcs == 0) {
    throw std::invalid_argument("RtmConfig: DBC count must be positive");
  }
  if (domains_per_dbc == 0) {
    throw std::invalid_argument("RtmConfig: domains_per_dbc must be positive");
  }
}

RtmConfig RtmConfig::Paper(unsigned dbcs) {
  RtmConfig config;
  config.dbcs = dbcs;
  config.domains_per_dbc = destiny::PaperDomainsPerDbc(dbcs);
  config.initial_alignment = InitialAlignment::kFirstAccess;
  config.params = destiny::PaperTableOne(dbcs);
  config.Validate();
  return config;
}

}  // namespace rtmp::rtm
