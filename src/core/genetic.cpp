#include "core/genetic.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "trace/variable_stats.h"

namespace rtmp::core {

namespace {

/// Fixed selection and variation rates: tournament-4 selection, a pair
/// undergoes crossover with probability 0.9, and each offspring mutates
/// with probability 0.5.
constexpr std::size_t kTournamentSize = 4;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.5;

struct Individual {
  Placement placement;
  std::uint64_t cost = 0;
};

/// Moves v to `target`'s end; diverts to the freest DBC when `target` is
/// full. v's own DBC always works as a last resort (it regains a slot the
/// moment v is removed), so the move can never fail.
void MoveWithRepair(Placement& placement, VariableId v, std::uint32_t target) {
  const std::uint32_t from = placement.SlotOf(v).dbc;
  if (from != target && placement.FreeIn(target) == 0) {
    std::uint32_t best = from;
    std::uint32_t best_free = 0;
    for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
      if (d == from) continue;
      const std::uint32_t free = placement.FreeIn(d);
      if (free > best_free) {
        best_free = free;
        best = d;
      }
    }
    target = best;
  }
  placement.MoveToEnd(v, target);
}

std::size_t Tournament(const std::vector<Individual>& pool, util::Rng& rng) {
  std::size_t best = static_cast<std::size_t>(rng.NextBelow(pool.size()));
  for (std::size_t i = 1; i < kTournamentSize; ++i) {
    const auto c = static_cast<std::size_t>(rng.NextBelow(pool.size()));
    if (pool[c].cost < pool[best].cost) best = c;
  }
  return best;
}

}  // namespace

std::vector<VariableId> AppearanceOrder(const trace::AccessSequence& seq) {
  const auto stats = trace::ComputeVariableStats(seq);
  std::vector<VariableId> seen;
  seen.reserve(seq.num_variables());
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first != trace::kNever) seen.push_back(v);
  }
  std::sort(seen.begin(), seen.end(), [&stats](VariableId a, VariableId b) {
    return stats[a].first < stats[b].first;
  });
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first == trace::kNever) seen.push_back(v);
  }
  return seen;
}

Placement RandomDraw::Build() const {
  Placement placement(slots.size(), static_cast<std::uint32_t>(fill.size()),
                      capacity);
  for (const VariableId v : order) placement.Append(slots[v].dbc, v);
  return placement;
}

void DrawRandomSlots(std::size_t num_variables, std::uint32_t num_dbcs,
                     std::uint32_t capacity, util::Rng& rng, RandomDraw& draw) {
  // Every shape check runs before the first draw: NextBelow(0) is
  // undefined, and the messages match the checks the built placement
  // would make.
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < num_variables) {
    throw std::invalid_argument("RandomPlacement: variables exceed capacity");
  }
  if (num_dbcs == 0) {
    throw std::invalid_argument("Placement: need at least one DBC");
  }
  if (capacity == 0) {
    throw std::invalid_argument("Placement: capacity must be positive");
  }
  draw.capacity = capacity;
  draw.order.resize(num_variables);
  for (std::size_t i = 0; i < num_variables; ++i) {
    draw.order[i] = static_cast<VariableId>(i);
  }
  rng.Shuffle(draw.order);
  draw.slots.resize(num_variables);
  draw.fill.assign(num_dbcs, 0);
  // fill[d] < capacity is Placement::FreeIn(d) > 0: an unbounded DBC
  // never holds kUnboundedCapacity variables.
  std::uint32_t* const fill = draw.fill.data();
  for (const VariableId v : draw.order) {
    // Draw a DBC until a free one comes up; with pathological fill ratios
    // fall back to a scan for determinism of termination.
    std::uint32_t dbc = 0;
    bool found = false;
    for (int attempt = 0; attempt < 8; ++attempt) {
      dbc = static_cast<std::uint32_t>(rng.NextBelow(num_dbcs));
      if (fill[dbc] < capacity) {
        found = true;
        break;
      }
    }
    if (!found) {
      for (std::uint32_t d = 0; d < num_dbcs; ++d) {
        if (fill[d] < capacity) {
          dbc = d;
          break;
        }
      }
    }
    draw.slots[v] = Slot{dbc, fill[dbc]++};
  }
}

Placement RandomPlacement(std::size_t num_variables, std::uint32_t num_dbcs,
                          std::uint32_t capacity, util::Rng& rng) {
  RandomDraw draw;
  DrawRandomSlots(num_variables, num_dbcs, capacity, rng, draw);
  return draw.Build();
}

void CrossoverSwapRange(Placement& left, Placement& right,
                        std::span<const VariableId> appearance_order,
                        std::size_t range_first, std::size_t range_last) {
  if (range_first > range_last || range_last >= appearance_order.size()) {
    throw std::out_of_range("CrossoverSwapRange: bad range");
  }
  for (std::size_t i = range_first; i <= range_last; ++i) {
    const VariableId v = appearance_order[i];
    const std::uint32_t in_left = left.SlotOf(v).dbc;
    const std::uint32_t in_right = right.SlotOf(v).dbc;
    if (in_left == in_right) continue;
    MoveWithRepair(left, v, in_right);
    MoveWithRepair(right, v, in_left);
  }
}

void Mutate(Placement& placement, const GaOptions& options, util::Rng& rng) {
  const double weights[] = {options.move_weight, options.transpose_weight,
                            options.permute_weight};
  const std::size_t choice = rng.NextWeighted(weights);
  const std::uint32_t q = placement.num_dbcs();
  switch (choice) {
    case 0: {  // move a variable to the end of another DBC
      if (placement.num_variables() == 0 || q < 2) return;
      const auto v = static_cast<VariableId>(
          rng.NextBelow(placement.num_variables()));
      const std::uint32_t from = placement.SlotOf(v).dbc;
      // Collect candidate targets with space.
      std::vector<std::uint32_t> targets;
      targets.reserve(q);
      for (std::uint32_t d = 0; d < q; ++d) {
        if (d != from && placement.FreeIn(d) > 0) targets.push_back(d);
      }
      if (targets.empty()) return;
      placement.MoveToEnd(v, rng.Pick(targets));
      return;
    }
    case 1: {  // transpose two variables within one DBC
      std::vector<std::uint32_t> candidates;
      for (std::uint32_t d = 0; d < q; ++d) {
        if (placement.dbc(d).size() >= 2) candidates.push_back(d);
      }
      if (candidates.empty()) return;
      const std::uint32_t d = rng.Pick(candidates);
      const std::size_t size = placement.dbc(d).size();
      const auto i = static_cast<std::size_t>(rng.NextBelow(size));
      auto j = static_cast<std::size_t>(rng.NextBelow(size - 1));
      if (j >= i) ++j;
      placement.Transpose(d, i, j);
      return;
    }
    default: {  // random permutation of each DBC
      for (std::uint32_t d = 0; d < q; ++d) {
        if (placement.dbc(d).size() < 2) continue;
        std::vector<VariableId> order = placement.dbc(d);
        rng.Shuffle(order);
        placement.Reorder(d, order);
      }
      return;
    }
  }
}

GaResult RunGa(const trace::AccessSequence& seq, std::uint32_t num_dbcs,
               std::uint32_t capacity, const GaOptions& options) {
  RequireSinglePort(options.cost, "RunGa");
  if (options.mu == 0 || options.lambda == 0) {
    throw std::invalid_argument("RunGa: mu and lambda must be positive");
  }
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("RunGa: variables exceed capacity");
  }

  util::Rng rng(options.seed);
  const std::vector<VariableId> order = AppearanceOrder(seq);
  GaResult result{Placement(n, num_dbcs, capacity), 0, {}, 0};

  // Fitness is the shift cost: one walk over the sequence's access runs
  // reading the individual's slot table.
  std::vector<VariableId> runs;
  AccessRuns(seq.accesses(), runs);
  std::vector<std::uint32_t> fill(num_dbcs);
  auto evaluate = [&](const Placement& p) -> std::uint64_t {
    ++result.evaluations;
    for (std::uint32_t d = 0; d < num_dbcs; ++d) {
      fill[d] = static_cast<std::uint32_t>(p.dbc(d).size());
    }
    return ShiftCostOfSlots(runs, p.slots(), fill, options.cost);
  };

  // -- initial population ---------------------------------------------------
  std::vector<Individual> population;
  population.reserve(options.mu);
  if (options.seed_with_heuristics) {
    const IntraHeuristic intras[] = {IntraHeuristic::kOfu,
                                     IntraHeuristic::kChen,
                                     IntraHeuristic::kShiftsReduce};
    for (const IntraHeuristic intra : intras) {
      if (population.size() >= options.mu) break;
      Placement afd = DistributeAfd(seq, num_dbcs, capacity, {intra});
      const std::uint64_t cost = evaluate(afd);
      population.push_back({std::move(afd), cost});
      if (population.size() >= options.mu) break;
      Placement dma =
          DistributeDma(seq, num_dbcs, capacity, {intra}).placement;
      const std::uint64_t dma_cost = evaluate(dma);
      population.push_back({std::move(dma), dma_cost});
    }
  }
  while (population.size() < options.mu) {
    Placement p = RandomPlacement(n, num_dbcs, capacity, rng);
    const std::uint64_t cost = evaluate(p);
    population.push_back({std::move(p), cost});
  }

  auto best_of = [](const std::vector<Individual>& pool) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pool.size(); ++i) {
      if (pool[i].cost < pool[best].cost) best = i;
    }
    return best;
  };
  result.history.push_back(population[best_of(population)].cost);

  // -- generations ----------------------------------------------------------
  // A child that crossover and mutation left equal to the parent it was
  // copied from keeps that parent's cost (a function of the same
  // placement); it still counts as an evaluation.
  auto rescore = [&](Individual& child, std::size_t parent) {
    if (child.placement == population[parent].placement) {
      ++result.evaluations;
    } else {
      child.cost = evaluate(child.placement);
    }
  };
  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    std::vector<Individual> offspring;
    offspring.reserve(options.lambda);
    while (offspring.size() < options.lambda) {
      const std::size_t parent_a = Tournament(population, rng);
      Individual a = population[parent_a];
      const std::size_t parent_b = Tournament(population, rng);
      Individual b = population[parent_b];
      if (n >= 2 && rng.NextBool(kCrossoverRate)) {
        auto f = static_cast<std::size_t>(rng.NextBelow(n));
        auto l = static_cast<std::size_t>(rng.NextBelow(n));
        if (f > l) std::swap(f, l);
        CrossoverSwapRange(a.placement, b.placement, order, f, l);
      }
      if (rng.NextBool(kMutationRate)) {
        Mutate(a.placement, options, rng);
      }
      if (rng.NextBool(kMutationRate)) {
        Mutate(b.placement, options, rng);
      }
      rescore(a, parent_a);
      offspring.push_back(std::move(a));
      if (offspring.size() < options.lambda) {
        rescore(b, parent_b);
        offspring.push_back(std::move(b));
      }
    }

    // mu + lambda pool; elitist tournament selection into the next
    // generation (the elite slot keeps the history monotone). Selection
    // draws indices first and materializes afterwards: a pool member that
    // wins several tournaments is deep-copied once per EXTRA win and moved
    // on its last, instead of copied on every win.
    std::vector<Individual> pool = std::move(population);
    pool.insert(pool.end(), std::make_move_iterator(offspring.begin()),
                std::make_move_iterator(offspring.end()));
    std::vector<std::size_t> chosen;
    chosen.reserve(options.mu);
    chosen.push_back(best_of(pool));
    while (chosen.size() < options.mu) {
      chosen.push_back(Tournament(pool, rng));
    }
    std::vector<std::uint32_t> uses(pool.size(), 0);
    for (const std::size_t i : chosen) ++uses[i];
    std::vector<Individual> next;
    next.reserve(options.mu);
    for (const std::size_t i : chosen) {
      if (--uses[i] == 0) {
        next.push_back(std::move(pool[i]));
      } else {
        next.push_back(pool[i]);
      }
    }
    population = std::move(next);
    result.history.push_back(population[0].cost);
  }

  const std::size_t best = best_of(population);
  result.best = std::move(population[best].placement);
  result.best_cost = population[best].cost;
  return result;
}

}  // namespace rtmp::core
