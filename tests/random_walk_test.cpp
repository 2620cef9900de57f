#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/random_walk.h"
#include "trace/access_sequence.h"
#include "util/rng.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

// ---- reference oracles -----------------------------------------------------
// The bodies RandomPlacement and RunRandomWalk had before candidates were
// drawn and scored in flat form: every draw builds a Placement through
// checked Append calls and every candidate is scored through ShiftCost.
// The production walk must reproduce them bit-for-bit: the same best
// placement, cost, history and evaluation count, and the same RNG
// consumption.

Placement OldRandomPlacement(std::size_t num_variables,
                             std::uint32_t num_dbcs, std::uint32_t capacity,
                             util::Rng& rng) {
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < num_variables) {
    throw std::invalid_argument("RandomPlacement: variables exceed capacity");
  }
  std::vector<VariableId> vars(num_variables);
  for (std::size_t i = 0; i < num_variables; ++i) {
    vars[i] = static_cast<VariableId>(i);
  }
  rng.Shuffle(vars);
  Placement placement(num_variables, num_dbcs, capacity);
  for (const VariableId v : vars) {
    // Draw a DBC until a free one comes up; with pathological fill ratios
    // fall back to a scan for determinism of termination.
    std::uint32_t dbc = 0;
    bool found = false;
    for (int attempt = 0; attempt < 8; ++attempt) {
      dbc = static_cast<std::uint32_t>(rng.NextBelow(num_dbcs));
      if (placement.FreeIn(dbc) > 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      for (std::uint32_t d = 0; d < num_dbcs; ++d) {
        if (placement.FreeIn(d) > 0) {
          dbc = d;
          break;
        }
      }
    }
    placement.Append(dbc, v);
  }
  return placement;
}

RwResult OldRunRandomWalk(const trace::AccessSequence& seq,
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

  Placement best = OldRandomPlacement(n, num_dbcs, capacity, rng);
  std::uint64_t best_cost = ShiftCost(seq, best, cost);

  const std::size_t stride = std::max<std::size_t>(options.iterations / 100, 1);
  RwResult result{std::move(best), best_cost, {}, 1};
  for (std::size_t i = 1; i < options.iterations; ++i) {
    Placement candidate = OldRandomPlacement(n, num_dbcs, capacity, rng);
    const std::uint64_t shifts = ShiftCost(seq, candidate, cost);
    ++result.evaluations;
    if (shifts < result.best_cost) {
      result.best = std::move(candidate);
      result.best_cost = shifts;
    }
    if (i % stride == 0) result.history.push_back(result.best_cost);
  }
  result.history.push_back(result.best_cost);
  return result;
}

/// Runs `body`; nullopt when it throws std::invalid_argument (any other
/// exception propagates and fails the test).
template <typename Body>
auto ResultOrInvalid(Body body) -> std::optional<decltype(body())> {
  try {
    return body();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

/// One point of the seeded equivalence grid.
struct GridCase {
  AccessSequence seq;
  std::uint32_t num_dbcs = 1;
  std::uint32_t capacity = kUnboundedCapacity;
  RwOptions options;
  CostOptions cost;
};

std::string Describe(const GridCase& c) {
  const int zero =
      c.cost.initial_alignment == rtm::InitialAlignment::kZero ? 1 : 0;
  char text[160];
  std::snprintf(text, sizeof text,
                "n=%zu q=%u capacity=%u zero=%d iterations=%zu",
                c.seq.num_variables(), c.num_dbcs, c.capacity, zero,
                c.options.iterations);
  return text;
}

GridCase DrawGridCase(util::Rng& rng) {
  GridCase c;
  static constexpr std::size_t kSizes[] = {0, 1, 2, 100};
  std::size_t n = kSizes[rng.NextBelow(4)];
  if (n == 100) n = 96 + rng.NextBelow(9);
  c.num_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(16));
  const std::uint64_t q = c.num_dbcs;
  const std::uint64_t capacity_mode = rng.NextBelow(3);
  if (capacity_mode == 1) {  // exactly full (tight when q does not divide n)
    if (n > 2) n = q * ((n + q - 1) / q);
    c.capacity = static_cast<std::uint32_t>((n + q - 1) / q);
  } else if (capacity_mode == 2) {  // slack
    c.capacity = static_cast<std::uint32_t>((n + q - 1) / q + 1 +
                                            rng.NextBelow(3));
  }
  for (std::size_t v = 0; v < n; ++v) {
    std::string name = "v";
    name += std::to_string(v);
    c.seq.AddVariable(std::move(name));
  }
  // Some variables may stay unaccessed: they still need slots.
  const std::size_t length = n == 0 ? 0 : 3 * n + rng.NextBelow(40);
  for (std::size_t t = 0; t < length; ++t) {
    c.seq.Append(static_cast<VariableId>(rng.NextBelow(n)));
  }

  if (rng.NextBool(0.5)) {
    c.cost.initial_alignment = rtm::InitialAlignment::kZero;
  }
  static constexpr std::size_t kIterations[] = {1, 99, 100, 101, 250};
  c.options.iterations = kIterations[rng.NextBelow(5)];
  c.options.seed = rng();

  return c;
}

TEST(RandomWalkOracle, RandomPlacementMatchesOldBodyOnSeededGrid) {
  util::Rng grid(0xD1CE);
  for (int i = 0; i < 600; ++i) {
    const GridCase c = DrawGridCase(grid);
    SCOPED_TRACE(Describe(c));
    const std::size_t n = c.seq.num_variables();
    util::Rng old_rng(c.options.seed);
    util::Rng new_rng(c.options.seed);
    const auto old_p = ResultOrInvalid([&] {
      return OldRandomPlacement(n, c.num_dbcs, c.capacity, old_rng);
    });
    const auto new_p = ResultOrInvalid([&] {
      return RandomPlacement(n, c.num_dbcs, c.capacity, new_rng);
    });
    ASSERT_EQ(old_p.has_value(), new_p.has_value());
    if (!old_p) continue;
    EXPECT_EQ(*new_p, *old_p);
    EXPECT_EQ(new_rng(), old_rng());
  }
}

TEST(RandomWalkOracle, RunRandomWalkMatchesOldBodyOnSeededGrid) {
  util::Rng grid(0xC0DE);
  int compared = 0;
  for (int i = 0; i < 400; ++i) {
    const GridCase c = DrawGridCase(grid);
    SCOPED_TRACE(Describe(c));
    const auto old_r = ResultOrInvalid([&] {
      return OldRunRandomWalk(c.seq, c.num_dbcs, c.capacity, c.options, c.cost);
    });
    const auto new_r = ResultOrInvalid([&] {
      return RunRandomWalk(c.seq, c.num_dbcs, c.capacity, c.options, c.cost);
    });
    ASSERT_EQ(old_r.has_value(), new_r.has_value());
    if (!old_r) continue;
    ++compared;
    EXPECT_EQ(new_r->best, old_r->best);
    EXPECT_EQ(new_r->best_cost, old_r->best_cost);
    EXPECT_EQ(new_r->history, old_r->history);
    EXPECT_EQ(new_r->evaluations, old_r->evaluations);
  }
  EXPECT_GT(compared, 200);  // the grid is not mostly rejections
}

TEST(RandomWalkOracle, RunRandomWalkMatchesOldBodyOnRepeatHeavySequences) {
  // The flat walk skips repeats of the previous access (60.6% of the
  // OffsetStone suite's accesses); the old body scores every access.
  util::Rng gen(0x4E9EA7);
  for (int round = 0; round < 12; ++round) {
    const std::size_t n = 2 + gen.NextBelow(40);
    AccessSequence seq;
    for (std::size_t v = 0; v < n; ++v) {
      std::string name = "v";
      name += std::to_string(v);
      seq.AddVariable(std::move(name));
    }
    std::size_t repeats = 0;
    while (seq.size() < 20 * n) {
      const auto v = static_cast<VariableId>(gen.NextBelow(n));
      if (seq.size() > 0 && seq[seq.size() - 1].variable == v) ++repeats;
      seq.Append(v);
      // Runs of geometric length, mean 3.
      for (std::uint64_t r = gen.NextGeometric(1.0 / 3, 12); r > 0; --r) {
        seq.Append(v);
        ++repeats;
      }
    }
    ASSERT_GE(2 * repeats, seq.size());
    for (const auto alignment : {rtm::InitialAlignment::kFirstAccess,
                                 rtm::InitialAlignment::kZero}) {
      GridCase c;
      c.num_dbcs = static_cast<std::uint32_t>(1 + gen.NextBelow(8));
      c.options.iterations = 300;
      c.options.seed = gen();
      c.cost.initial_alignment = alignment;
      c.seq = seq;
      SCOPED_TRACE(Describe(c));
      const RwResult old_r = OldRunRandomWalk(
          c.seq, c.num_dbcs, kUnboundedCapacity, c.options, c.cost);
      const RwResult new_r = RunRandomWalk(
          c.seq, c.num_dbcs, kUnboundedCapacity, c.options, c.cost);
      EXPECT_EQ(new_r.best, old_r.best);
      EXPECT_EQ(new_r.best_cost, old_r.best_cost);
      EXPECT_EQ(new_r.history, old_r.history);
      EXPECT_EQ(new_r.evaluations, old_r.evaluations);
    }
  }
}

TEST(RandomWalkOracle, HistoryHoldsOneSamplePerStridePlusFinal) {
  const auto seq = AccessSequence::FromCompactString("abcdabcd");
  for (const std::size_t iterations : {1, 99, 100, 101, 150, 250}) {
    RwOptions options;
    options.iterations = iterations;
    const std::size_t stride = std::max<std::size_t>(iterations / 100, 1);
    const RwResult result = RunRandomWalk(seq, 2, kUnboundedCapacity, options);
    EXPECT_EQ(result.history.size(), (iterations - 1) / stride + 1);
  }
}

AccessSequence Trace() {
  return AccessSequence::FromCompactString("abcdabcd" "eeff" "abab");
}

RwOptions SmallRw(std::size_t iterations = 500, std::uint64_t seed = 3) {
  RwOptions options;
  options.iterations = iterations;
  options.seed = seed;
  return options;
}

TEST(RandomWalk, BestMatchesReportedCost) {
  const auto seq = Trace();
  const RwResult result = RunRandomWalk(seq, 2, kUnboundedCapacity, SmallRw());
  EXPECT_EQ(ShiftCost(seq, result.best), result.best_cost);
  EXPECT_TRUE(result.best.IsComplete());
  result.best.CheckInvariants();
}

TEST(RandomWalk, MoreIterationsNeverHurt) {
  const auto seq = Trace();
  const RwResult small = RunRandomWalk(seq, 2, kUnboundedCapacity,
                                       SmallRw(50, 9));
  const RwResult big = RunRandomWalk(seq, 2, kUnboundedCapacity,
                                     SmallRw(2000, 9));
  // The long run replays the short run's prefix (same seed), so its best
  // can only be equal or better.
  EXPECT_LE(big.best_cost, small.best_cost);
}

TEST(RandomWalk, HistoryIsMonotone) {
  const auto seq = Trace();
  const RwResult result =
      RunRandomWalk(seq, 2, kUnboundedCapacity, SmallRw(1000));
  ASSERT_FALSE(result.history.empty());
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
}

TEST(RandomWalk, DeterministicForFixedSeed) {
  const auto seq = Trace();
  const RwResult a = RunRandomWalk(seq, 3, kUnboundedCapacity, SmallRw(300, 5));
  const RwResult b = RunRandomWalk(seq, 3, kUnboundedCapacity, SmallRw(300, 5));
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.best, b.best);
}

TEST(RandomWalk, RespectsCapacity) {
  const auto seq = Trace();  // 6 variables
  const RwResult result = RunRandomWalk(seq, 3, 2, SmallRw(200));
  result.best.CheckInvariants();
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_LE(result.best.dbc(d).size(), 2u);
  }
}

TEST(RandomWalk, RejectsDegenerateInput) {
  const auto seq = Trace();
  EXPECT_THROW(RunRandomWalk(seq, 2, kUnboundedCapacity, SmallRw(0)),
               std::invalid_argument);
  EXPECT_THROW(RunRandomWalk(seq, 2, 2, SmallRw(10)), std::invalid_argument);
}

TEST(RandomWalk, RejectsBadShapesWithoutDrawing) {
  const auto seq = Trace();  // 6 variables
  const AccessSequence empty;
  for (const AccessSequence* s : {&seq, &empty}) {
    EXPECT_THROW(RunRandomWalk(*s, 0, kUnboundedCapacity, SmallRw(10)),
                 std::invalid_argument);
    EXPECT_THROW(RunRandomWalk(*s, 0, 8, SmallRw(10)), std::invalid_argument);
    EXPECT_THROW(RunRandomWalk(*s, 2, 0, SmallRw(10)), std::invalid_argument);
  }
  EXPECT_THROW(RunRandomWalk(seq, 2, 2, SmallRw(10)), std::invalid_argument);
}

TEST(RandomWalk, EmptySequenceCostsNothing) {
  const AccessSequence empty;
  const RwResult result = RunRandomWalk(empty, 3, 2, SmallRw(150));
  EXPECT_EQ(result.best_cost, 0u);
  EXPECT_EQ(result.best.num_variables(), 0u);
  EXPECT_EQ(result.best.num_dbcs(), 3u);
  EXPECT_EQ(result.evaluations, 150u);
  EXPECT_EQ(result.history, std::vector<std::uint64_t>(150, 0));
}

TEST(RandomWalk, ReportsEvaluationsPerformed) {
  const auto seq = Trace();
  const RwResult result = RunRandomWalk(seq, 2, kUnboundedCapacity,
                                        SmallRw(137));
  EXPECT_EQ(result.evaluations, 137u);
}

TEST(RandomWalk, PinnedResultUnchangedByEvaluatorRefactor) {
  // Golden values captured from the first, ShiftCost-replay
  // implementation; every later walk must reproduce them bit-exactly.
  const auto seq = AccessSequence::FromCompactString(
      "gabababgcdcdcdgefefefghihihig");
  RwOptions options;
  options.iterations = 500;
  options.seed = 7;
  const RwResult four = RunRandomWalk(seq, 4, kUnboundedCapacity, options);
  EXPECT_EQ(four.best_cost, 6u);
  const RwResult two = RunRandomWalk(seq, 2, 5, options);
  EXPECT_EQ(two.best_cost, 15u);
}

TEST(RandomWalk, SingleVariableIsFree) {
  const auto seq = AccessSequence::FromCompactString("aaaa");
  const RwResult result =
      RunRandomWalk(seq, 2, kUnboundedCapacity, SmallRw(10));
  EXPECT_EQ(result.best_cost, 0u);
}

}  // namespace
}  // namespace rtmp::core
