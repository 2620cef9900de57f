#include "harness/scenarios/scenarios.h"

namespace rtmp::benchtool::internal {

void RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  // `smoke` first: it is the CI entry point and the first thing `list`
  // should show. The rest follow the paper's presentation order.
  scenarios::RegisterSmoke(registry);
  scenarios::RegisterWorkloadsSmoke(registry);
  scenarios::RegisterSearchSmoke(registry);
  scenarios::RegisterFigOnline(registry);
  scenarios::RegisterFigCache(registry);
  scenarios::RegisterFigMultitenant(registry);
  scenarios::RegisterTable1DeviceParams(registry);
  scenarios::RegisterFig3Example(registry);
  scenarios::RegisterFig4Shifts(registry);
  scenarios::RegisterFig5Energy(registry);
  scenarios::RegisterFig6DbcTradeoff(registry);
  scenarios::RegisterSec4cLatency(registry);
  scenarios::RegisterGaConvergence(registry);
  scenarios::RegisterHeadlineSummary(registry);
  scenarios::RegisterAblationDma(registry);
  scenarios::RegisterAblationIntra(registry);
  scenarios::RegisterAblationOverlap(registry);
}

}  // namespace rtmp::benchtool::internal
