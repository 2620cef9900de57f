#include "online/policy.h"

#include <string>

namespace rtmp::online {

namespace {

void RegisterFamily(OnlinePolicyRegistry& registry,
                    const std::string& reseed) {
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = kWholeTraceWindow;
    config.detector.kind = DetectorKind::kNone;
    const util::RecipeInfo info{
        "online-static-" + reseed,
        "one whole-trace window, no re-placement: the oracle wrapper, "
        "bit-identical to " + reseed};
    util::RegisterRecipe(registry, info, config);
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kFixedWindow;
    config.detector.period = 1;
    const util::RecipeInfo info{
        "online-fixed-" + reseed,
        "256-access windows, re-seed weighed at every boundary "
        "(period-1 epoch baseline) via " + reseed};
    util::RegisterRecipe(registry, info, config);
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kEwmaDrift;
    config.detector.threshold = 0.35;
    config.detector.alpha = 0.3;
    config.refine = true;
    const util::RecipeInfo info{
        "online-ewma-" + reseed,
        "256-access windows, EWMA-drift phase detection + incremental "
        "refinement, re-seeded via " + reseed};
    util::RegisterRecipe(registry, info, config);
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kCusum;
    config.detector.threshold = 0.6;
    config.detector.slack = 0.1;
    config.detector.alpha = 0.3;
    config.refine = true;
    const util::RecipeInfo info{
        "online-cusum-" + reseed,
        "256-access windows, CUSUM change-point detection (slack 0.1, "
        "threshold 0.6) + incremental refinement, re-seeded via " + reseed};
    util::RegisterRecipe(registry, info, config);
  }
}

}  // namespace

void RegisterBuiltinOnlinePolicies(OnlinePolicyRegistry& registry) {
  RegisterFamily(registry, "dma-sr");
  RegisterFamily(registry, "afd-ofu");
}

}  // namespace rtmp::online
