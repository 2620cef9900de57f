// Registration hooks of the built-in scenarios, one per translation
// unit under bench/harness/scenarios/. Called (in paper order) from
// register.cpp; explicit registration keeps a static library workable —
// no reliance on self-registering global initializers the linker might
// drop.
#pragma once

#include "harness/scenario.h"

namespace rtmp::benchtool::scenarios {

void RegisterSmoke(ScenarioRegistry& registry);
void RegisterWorkloadsSmoke(ScenarioRegistry& registry);
void RegisterSearchSmoke(ScenarioRegistry& registry);
void RegisterFigOnline(ScenarioRegistry& registry);
void RegisterFigCache(ScenarioRegistry& registry);
void RegisterFigMultitenant(ScenarioRegistry& registry);
void RegisterFig3Example(ScenarioRegistry& registry);
void RegisterFig4Shifts(ScenarioRegistry& registry);
void RegisterFig5Energy(ScenarioRegistry& registry);
void RegisterFig6DbcTradeoff(ScenarioRegistry& registry);
void RegisterSec4cLatency(ScenarioRegistry& registry);
void RegisterHeadlineSummary(ScenarioRegistry& registry);
void RegisterGaConvergence(ScenarioRegistry& registry);
void RegisterTable1DeviceParams(ScenarioRegistry& registry);
void RegisterAblationDma(ScenarioRegistry& registry);
void RegisterAblationIntra(ScenarioRegistry& registry);
void RegisterAblationOverlap(ScenarioRegistry& registry);

}  // namespace rtmp::benchtool::scenarios
