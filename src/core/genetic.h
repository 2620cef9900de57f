// Genetic algorithm for near-optimal placements (§III-C).
//
// Individuals ARE placements (I = (DBC_1, ..., DBC_q), ordered lists).
// Fitness is the shift cost. The paper's configuration, all defaults here:
// mu + lambda evolution with mu = lambda = 100, tournament-4 selection,
// 200 generations, a 2-fold crossover that swaps the DBC assignments of a
// contiguous range of variables (in order of first appearance in S)
// between two parents, and three mutations — move a variable to another
// DBC's end, transpose two variables inside a DBC, randomly permute every
// DBC — with the destructive third skewed down 10:3 relative to the others.
// Following the paper's conclusions, the initial population is seeded with
// the heuristic placements (AFD/DMA x OFU/Chen/SR) unless disabled. The
// tournament size (4), crossover probability (0.9 per pair) and mutation
// probability (0.5 per offspring) are fixed constants in genetic.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "core/placement.h"
#include "trace/access_sequence.h"
#include "util/rng.h"

namespace rtmp::core {

struct GaOptions {
  std::size_t mu = 100;          ///< parents kept per generation
  std::size_t lambda = 100;      ///< offspring per generation
  std::size_t generations = 200;
  /// Relative weights of the three mutations (move, transpose, permute);
  /// the paper skews the destructive permutation down "in a ratio of 10:3".
  double move_weight = 10.0;
  double transpose_weight = 10.0;
  double permute_weight = 3.0;
  bool seed_with_heuristics = true;
  std::uint64_t seed = 0x5EEDULL;
  CostOptions cost{};
};

struct GaResult {
  Placement best;
  std::uint64_t best_cost = 0;
  /// Best fitness after each generation (monotone non-increasing thanks to
  /// elitism); entry 0 is the initial population's best.
  std::vector<std::uint64_t> history;
  std::size_t evaluations = 0;  ///< fitness evaluations performed
};

/// One uniformly random complete placement in flat form: reusable scratch
/// that DrawRandomSlots overwrites on every draw, so a stream of draws
/// allocates nothing once warm.
struct RandomDraw {
  std::vector<VariableId> order;    ///< variables in placement order
  std::vector<Slot> slots;          ///< slots[v]: v's (dbc, offset)
  std::vector<std::uint32_t> fill;  ///< fill[d]: variables drawn into d
  std::uint32_t capacity = kUnboundedCapacity;

  /// The drawn placement: `order` appended in draw order.
  [[nodiscard]] Placement Build() const;
};

/// Draws the placement RandomPlacement returns into `draw`, consuming
/// `rng` identically: one shuffle of the ids, then per variable up to 8
/// uniform DBC draws until one has room, then a scan for the first DBC
/// with room. Throws std::invalid_argument before any draw when there
/// are no DBCs, capacity is zero or the variables exceed capacity.
void DrawRandomSlots(std::size_t num_variables, std::uint32_t num_dbcs,
                     std::uint32_t capacity, util::Rng& rng, RandomDraw& draw);

/// Uniformly random complete placement honoring per-DBC capacity
/// (DrawRandomSlots, built).
[[nodiscard]] Placement RandomPlacement(std::size_t num_variables,
                                        std::uint32_t num_dbcs,
                                        std::uint32_t capacity,
                                        util::Rng& rng);

/// The paper's 2-fold crossover: variables are indexed by first appearance
/// in S (`appearance_order`); the DBC assignments of the index range
/// [range_first, range_last] are swapped between `left` and `right`, each
/// reassigned variable landing at its new DBC's end. Both placements stay
/// valid; if a swap would overflow a DBC, the variable is diverted to the
/// DBC with the most free space (deterministic repair).
void CrossoverSwapRange(Placement& left, Placement& right,
                        std::span<const VariableId> appearance_order,
                        std::size_t range_first, std::size_t range_last);

/// Applies one randomly chosen mutation (weights from `options`).
void Mutate(Placement& placement, const GaOptions& options, util::Rng& rng);

/// Runs the GA. Throws std::invalid_argument on zero mu/lambda,
/// insufficient capacity or options.cost without exactly one port.
[[nodiscard]] GaResult RunGa(const trace::AccessSequence& seq,
                             std::uint32_t num_dbcs, std::uint32_t capacity,
                             const GaOptions& options = {});

/// Variables ordered by first appearance in `seq`, never-accessed variables
/// last in id order — the variable indexing the crossover range uses.
[[nodiscard]] std::vector<VariableId> AppearanceOrder(
    const trace::AccessSequence& seq);

}  // namespace rtmp::core
