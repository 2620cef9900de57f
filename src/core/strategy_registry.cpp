#include "core/strategy_registry.h"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "core/multi_dma.h"
#include "core/placement_workspace.h"
#include "core/random_walk.h"

namespace rtmp::core {

namespace {

void ValidateRequest(const PlacementRequest& request) {
  if (request.sequence == nullptr) {
    throw std::invalid_argument("PlacementRequest: sequence is null");
  }
  if (request.num_dbcs == 0) {
    throw std::invalid_argument("PlacementRequest: num_dbcs must be > 0");
  }
}

/// Adapter running one of the library's built-in solutions. One instance
/// per registered name; stateless, so safe to share across threads.
class BuiltinStrategy final : public PlacementStrategy {
 public:
  explicit BuiltinStrategy(StrategyInfo info) : info_(std::move(info)) {}

  [[nodiscard]] const StrategyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] PlacementResult Run(
      const PlacementRequest& request) const override {
    ValidateRequest(request);
    const StrategySpec& spec = *info_.spec;
    const trace::AccessSequence& seq = *request.sequence;
    // The search strategies evaluate their best candidate under
    // request.options.cost as part of the search.
    if (spec.inter == InterPolicy::kGa) {
      GaResult ga_result = RunGa(seq, request.num_dbcs, request.capacity,
                                 request.options.ga, request.options.cost);
      return {std::move(ga_result.best), ga_result.best_cost, 0.0,
              ga_result.evaluations};
    }
    if (spec.inter == InterPolicy::kRandomWalk) {
      RwResult rw_result =
          RunRandomWalk(seq, request.num_dbcs, request.capacity,
                        request.options.rw, request.options.cost);
      return {std::move(rw_result.best), rw_result.best_cost, 0.0,
              rw_result.evaluations};
    }
    // The constructive heuristics need the explicit cost pass, and only
    // when the caller wants it.
    PlacementResult result{Construct(spec, request)};
    if (request.compute_cost) {
      result.cost = ShiftCost(seq, result.placement, request.options.cost);
    }
    return result;
  }

 private:
  /// The constructive placement, built in the request's workspace or in
  /// a fresh one.
  [[nodiscard]] static Placement Construct(const StrategySpec& spec,
                                           const PlacementRequest& request) {
    std::optional<PlacementWorkspace> local;
    PlacementWorkspace& workspace = request.workspace != nullptr
                                        ? *request.workspace
                                        : local.emplace();
    const trace::AccessSequence& seq = *request.sequence;
    switch (spec.inter) {
      case InterPolicy::kAfd:
        return DistributeAfd(seq, request.num_dbcs, request.capacity,
                             {spec.intra}, workspace);
      case InterPolicy::kDma:
        return DistributeDma(seq, request.num_dbcs, request.capacity,
                             {spec.intra}, workspace);
      case InterPolicy::kDmaMulti:
        return DistributeMultiDma(seq, request.num_dbcs, request.capacity,
                                  {{spec.intra}}, workspace)
            .placement;
      case InterPolicy::kGa:
      case InterPolicy::kRandomWalk:
        break;
    }
    throw std::logic_error("BuiltinStrategy: not a constructive strategy");
  }

  StrategyInfo info_;
};

void RegisterSpec(StrategyRegistry& registry, StrategySpec spec,
                  std::string summary, bool search_based) {
  StrategyInfo info;
  info.name = ToString(spec);
  info.summary = std::move(summary);
  info.search_based = search_based;
  info.spec = spec;
  // Copy the name out before the capture moves `info`: the two arguments
  // are indeterminately sequenced.
  std::string name = info.name;
  registry.Register(std::move(name), [info = std::move(info)] {
    return std::make_shared<const BuiltinStrategy>(info);
  });
}

// The built-in solutions register here. Static-initializer
// self-registration would be dropped by the linker for unreferenced TUs of
// a static library, so Global() triggers this explicitly instead.

void RegisterConstructiveStrategies(StrategyRegistry& registry) {
  constexpr struct {
    InterPolicy inter;
    const char* summary;
  } kInterFamilies[] = {
      {InterPolicy::kAfd, "frequency deal across DBCs (Chen et al.)"},
      {InterPolicy::kDma, "liveliness-aware distribution (Algorithm 1)"},
      {InterPolicy::kDmaMulti, "multi-set DMA (§VI extension)"},
  };
  constexpr IntraHeuristic kIntras[] = {
      IntraHeuristic::kNone, IntraHeuristic::kOfu, IntraHeuristic::kChen,
      IntraHeuristic::kShiftsReduce, IntraHeuristic::kGreedyEdge};
  for (const auto& family : kInterFamilies) {
    for (const IntraHeuristic intra : kIntras) {
      RegisterSpec(registry, {family.inter, intra},
                   std::string(family.summary) + ", intra policy '" +
                       std::string(ToString(intra)) + "'",
                   /*search_based=*/false);
    }
  }
}

void RegisterSearchStrategies(StrategyRegistry& registry) {
  RegisterSpec(registry, {InterPolicy::kGa, IntraHeuristic::kNone},
               "genetic algorithm (§III-C), near-optimal offline baseline",
               /*search_based=*/true);
  RegisterSpec(registry, {InterPolicy::kRandomWalk, IntraHeuristic::kNone},
               "uniform random-walk search, the GA's sanity baseline",
               /*search_based=*/true);
}

}  // namespace

PlacementResult RunTimed(const PlacementStrategy& strategy,
                         const PlacementRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  PlacementResult result = strategy.Run(request);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

void RegisterBuiltinStrategies(StrategyRegistry& registry) {
  RegisterConstructiveStrategies(registry);
  RegisterSearchStrategies(registry);
}

}  // namespace rtmp::core
