// rtmlint: hot-path — the per-candidate loop draws and scores tens of
// thousands of placements per call; allocations here are advisory
// findings (see hot-path-alloc).
#include "core/random_walk.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/genetic.h"
#include "util/rng.h"

namespace rtmp::core {

RwResult RunRandomWalk(const trace::AccessSequence& seq,
                       std::uint32_t num_dbcs, std::uint32_t capacity,
                       const RwOptions& options, const CostOptions& cost) {
  if (options.iterations == 0) {
    throw std::invalid_argument("RunRandomWalk: need at least one iteration");
  }
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("RunRandomWalk: variables exceed capacity");
  }
  util::Rng rng(options.seed);

  // Candidates are unrelated uniform draws into one reused RandomDraw,
  // scored flat (ShiftCostOfSlots: one walk over the access runs, reading
  // the drawn slots) and built into a Placement only when one becomes the
  // new best, about H(iterations) times per run.
  std::vector<VariableId> runs;
  AccessRuns(seq.accesses(), runs);
  RandomDraw draw;
  auto draw_and_score = [&]() -> std::uint64_t {
    DrawRandomSlots(n, num_dbcs, capacity, rng, draw);
    const std::uint64_t shifts =
        ShiftCostOfSlots(runs, draw.slots, num_dbcs, cost);
    assert(shifts == ShiftCost(seq, draw.Build(), cost));
    return shifts;
  };

  const std::uint64_t first_cost = draw_and_score();
  const std::size_t stride = std::max<std::size_t>(options.iterations / 100, 1);
  RwResult result{draw.Build(), first_cost, {}, 1};
  // One sample every `stride` iterations, plus the final one.
  result.history.resize((options.iterations - 1) / stride + 1);
  std::size_t sample = 0;
  for (std::size_t i = 1; i < options.iterations; ++i) {
    const std::uint64_t cost = draw_and_score();
    ++result.evaluations;
    if (cost < result.best_cost) {
      result.best = draw.Build();
      result.best_cost = cost;
    }
    if (i % stride == 0) result.history[sample++] = result.best_cost;
  }
  result.history.back() = result.best_cost;
  return result;
}

}  // namespace rtmp::core
