#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/strategy_registry.h"

namespace rtmp::core {

namespace {

std::string_view InterName(InterPolicy inter) {
  switch (inter) {
    case InterPolicy::kAfd: return "afd";
    case InterPolicy::kDma: return "dma";
    case InterPolicy::kDmaMulti: return "dma2";
    case InterPolicy::kGa: return "ga";
    case InterPolicy::kRandomWalk: return "rw";
  }
  return "unknown";
}

}  // namespace

std::string ToString(const StrategySpec& spec) {
  std::string name(InterName(spec.inter));
  if (spec.inter == InterPolicy::kGa ||
      spec.inter == InterPolicy::kRandomWalk) {
    return name;
  }
  name += '-';
  name += ToString(spec.intra);
  return name;
}

void ScaleSearchEffort(StrategyOptions& options, double factor) {
  if (!std::isfinite(factor) || factor <= 0.0) {
    throw std::invalid_argument(
        "ScaleSearchEffort: factor must be positive and finite");
  }
  auto scale = [factor](std::size_t value) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(value) * factor)));
  };
  options.ga.mu = std::max<std::size_t>(4, scale(options.ga.mu));
  options.ga.lambda = std::max<std::size_t>(4, scale(options.ga.lambda));
  options.ga.generations = scale(options.ga.generations);
  options.rw.iterations = scale(options.rw.iterations);
}

std::vector<StrategySpec> PaperStrategies() {
  // The six solutions of §IV-A in the paper's listing order, resolved
  // through the registry so a missing registration fails loudly.
  std::vector<StrategySpec> specs;
  for (const char* name :
       {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr", "ga", "rw"}) {
    const auto info = StrategyRegistry::Global().Describe(name);
    if (!info || !info->spec) {
      throw std::logic_error(std::string("PaperStrategies: '") + name +
                             "' is not registered");
    }
    specs.push_back(*info->spec);
  }
  return specs;
}

}  // namespace rtmp::core
