#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

AccessSequence PhasedSequence() {
  return AccessSequence::FromCompactString("g" "ababab" "g" "cdcdcd" "g"
                                           "efef" "g");
}

TEST(StrategyRegistry, GlobalContainsEveryBuiltinCombination) {
  auto& registry = StrategyRegistry::Global();
  for (const char* inter : {"afd", "dma", "dma2"}) {
    for (const char* intra : {"none", "ofu", "chen", "sr", "ge"}) {
      const std::string name = std::string(inter) + "-" + intra;
      EXPECT_TRUE(registry.Contains(name)) << name;
    }
  }
  EXPECT_TRUE(registry.Contains("ga"));
  EXPECT_TRUE(registry.Contains("rw"));
  EXPECT_GE(registry.size(), 17u);
}

TEST(StrategyRegistry, PaperStrategiesResolveThroughTheRegistry) {
  auto& registry = StrategyRegistry::Global();
  for (const StrategySpec& spec : PaperStrategies()) {
    const auto strategy = registry.Find(ToString(spec));
    ASSERT_NE(strategy, nullptr) << ToString(spec);
    EXPECT_EQ(strategy->Describe().name, ToString(spec));
    ASSERT_TRUE(strategy->Describe().spec.has_value());
    EXPECT_EQ(*strategy->Describe().spec, spec);
  }
}

TEST(StrategyRegistry, NamesAreSortedAndDescribable) {
  auto& registry = StrategyRegistry::Global();
  const auto names = registry.Names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->summary.empty()) << name;
  }
}

TEST(StrategyRegistry, LookupIsCaseInsensitive) {
  auto& registry = StrategyRegistry::Global();
  EXPECT_NE(registry.Find("DMA-SR"), nullptr);
  EXPECT_NE(registry.Find("Ga"), nullptr);
  EXPECT_TRUE(registry.Contains("AFD-OFU"));
}

TEST(StrategyRegistry, UnknownNameReturnsNullAndNullopt) {
  auto& registry = StrategyRegistry::Global();
  EXPECT_EQ(registry.Find("no-such-strategy"), nullptr);
  EXPECT_EQ(registry.Find(""), nullptr);
  EXPECT_FALSE(registry.Describe("no-such-strategy").has_value());
  EXPECT_FALSE(registry.Contains("dma-"));
}

TEST(StrategyRegistry, DuplicateRegistrationThrows) {
  StrategyRegistry registry;
  RegisterBuiltinStrategies(registry);
  const auto factory = [] {
    return StrategyRegistry::Global().Find("afd-ofu");
  };
  EXPECT_THROW(registry.Register("dma-sr", factory), std::invalid_argument);
  // Case-insensitive: "DMA-SR" collides with the registered "dma-sr".
  EXPECT_THROW(registry.Register("DMA-SR", factory), std::invalid_argument);
  registry.Register("fresh-name", factory);
  EXPECT_THROW(registry.Register("fresh-name", factory),
               std::invalid_argument);
}

TEST(StrategyRegistry, RejectsInvalidNamesAndNullFactories) {
  StrategyRegistry registry;
  const auto factory = [] {
    return StrategyRegistry::Global().Find("afd-ofu");
  };
  EXPECT_THROW(registry.Register("", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("has space", factory),
               std::invalid_argument);
  // '|' delimits ResultTable keys; anything outside [a-z0-9._-] is out.
  EXPECT_THROW(registry.Register("a|b", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("a/b", factory), std::invalid_argument);
  EXPECT_THROW(registry.Register("ok", nullptr), std::invalid_argument);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(StrategyRegistry, RunReportsCostWallTimeAndEffort) {
  const AccessSequence seq = PhasedSequence();
  auto& registry = StrategyRegistry::Global();

  PlacementRequest request;
  request.sequence = &seq;
  request.num_dbcs = 4;
  ScaleSearchEffort(request.options, 0.02);

  for (const char* name : {"dma-sr", "ga", "rw"}) {
    const auto strategy = registry.Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    // RunTimed stamps wall_ms uniformly; a raw Run() leaves it 0.
    EXPECT_EQ(strategy->Run(request).wall_ms, 0.0) << name;
    const PlacementResult result = RunTimed(*strategy, request);
    EXPECT_TRUE(result.placement.IsComplete()) << name;
    EXPECT_EQ(result.cost,
              ShiftCost(seq, result.placement, request.options.cost))
        << name;
    EXPECT_GT(result.wall_ms, 0.0) << name;
    if (strategy->Describe().search_based) {
      // GA evaluates mu + lambda * generations individuals, RW its
      // iteration count — far more than the single heuristic candidate.
      EXPECT_GT(result.evaluations, 1u) << name;
    } else {
      EXPECT_EQ(result.evaluations, 1u) << name;
    }
  }
}

TEST(StrategyRegistry, PlacementOnlyRequestsSkipTheCostPass) {
  const AccessSequence seq = PhasedSequence();
  PlacementRequest request;
  request.sequence = &seq;
  request.num_dbcs = 4;
  request.compute_cost = false;
  ScaleSearchEffort(request.options, 0.02);

  const auto heuristic =
      StrategyRegistry::Global().Find("dma-sr")->Run(request);
  EXPECT_TRUE(heuristic.placement.IsComplete());
  EXPECT_EQ(heuristic.cost, 0u);  // skipped for constructive strategies

  // Search strategies get their cost for free and report it regardless.
  const auto searched = StrategyRegistry::Global().Find("ga")->Run(request);
  EXPECT_EQ(searched.cost,
            ShiftCost(seq, searched.placement, request.options.cost));
}

TEST(StrategyRegistry, PlacementDoesNotDependOnComputeCost) {
  const AccessSequence seq = PhasedSequence();
  auto& registry = StrategyRegistry::Global();
  StrategyOptions options;
  ScaleSearchEffort(options, 0.02);
  for (const StrategySpec& spec : PaperStrategies()) {
    const auto strategy = registry.Find(ToString(spec));
    const Placement costed =
        strategy->Run({&seq, 4, kUnboundedCapacity, options}).placement;
    const Placement placement_only =
        strategy
            ->Run({&seq, 4, kUnboundedCapacity, options,
                   /*compute_cost=*/false})
            .placement;
    EXPECT_EQ(costed, placement_only) << ToString(spec);
  }
}

TEST(StrategyRegistry, RunValidatesTheRequest) {
  const auto strategy = StrategyRegistry::Global().Find("afd-ofu");
  ASSERT_NE(strategy, nullptr);
  PlacementRequest null_sequence;
  null_sequence.num_dbcs = 2;
  EXPECT_THROW((void)strategy->Run(null_sequence), std::invalid_argument);
  const AccessSequence seq = PhasedSequence();
  PlacementRequest zero_dbcs;
  zero_dbcs.sequence = &seq;
  zero_dbcs.num_dbcs = 0;
  EXPECT_THROW((void)strategy->Run(zero_dbcs), std::invalid_argument);
}

TEST(StrategyRegistry, ScaleSearchEffortRejectsBadFactors) {
  // A non-finite factor used to round to a 2^63 generation count.
  for (const double factor : {0.0, -1.0, std::nan(""),
                              std::numeric_limits<double>::infinity()}) {
    StrategyOptions options;
    EXPECT_THROW(ScaleSearchEffort(options, factor), std::invalid_argument)
        << factor;
    EXPECT_EQ(options.ga.generations, StrategyOptions{}.ga.generations);
  }
}

/// A user-defined strategy: everything into DBC 0 in first-use order.
/// Exercises the extension path the registry exists for.
class FirstUseStrategy final : public PlacementStrategy {
 public:
  FirstUseStrategy() {
    info_.name = "first-use";
    info_.summary = "single-DBC order-of-first-use layout (test strategy)";
  }

  const StrategyInfo& Describe() const noexcept override { return info_; }

  PlacementResult Run(const PlacementRequest& request) const override {
    const AccessSequence& seq = *request.sequence;
    PlacementResult result;
    result.placement =
        Placement(seq.num_variables(), request.num_dbcs, request.capacity);
    for (const auto& access : seq.accesses()) {
      if (!result.placement.IsPlaced(access.variable)) {
        result.placement.Append(0, access.variable);
      }
    }
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      if (!result.placement.IsPlaced(v)) result.placement.Append(0, v);
    }
    result.cost = ShiftCost(seq, result.placement, request.options.cost);
    return result;
  }

 private:
  StrategyInfo info_;
};

// Self-registration into the global registry, as downstream code would do.
const StrategyRegistrar kFirstUseRegistrar{"first-use", [] {
  return std::make_shared<const FirstUseStrategy>();
}};

TEST(StrategyRegistry, FactoriesMayConsultTheRegistryWithoutDeadlock) {
  // A factory that consults the registry it lives in — Find() must not
  // hold its lock across the factory call, or this deadlocks.
  StrategyRegistry registry;
  RegisterBuiltinStrategies(registry);
  registry.Register("afd-ofu-alias",
                    [&registry] { return registry.Find("afd-ofu"); });
  const auto strategy = registry.Find("afd-ofu-alias");
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->Describe().name, "afd-ofu");
  // The delegated instance is cached under the alias as well.
  EXPECT_EQ(registry.Find("afd-ofu-alias"), strategy);
}

TEST(StrategyRegistry, ExternalStrategiesPlugInByName) {
  auto& registry = StrategyRegistry::Global();
  const auto strategy = registry.Find("first-use");
  ASSERT_NE(strategy, nullptr);
  // Not enum-backed: no StrategySpec.
  EXPECT_FALSE(strategy->Describe().spec.has_value());

  const AccessSequence seq = PhasedSequence();
  const PlacementResult result =
      strategy->Run({&seq, 2, kUnboundedCapacity, {}});
  EXPECT_TRUE(result.placement.IsComplete());
  result.placement.CheckInvariants();
  EXPECT_TRUE(result.placement.dbc(1).empty());
}

// ---- pinned costs of every constructive strategy ---------------------------

/// ShiftCost of the 15 constructive strategies (registry order) on three
/// long GenerateMarkov streams and one stream of six disjoint phases x
/// {unbounded, tight} capacity x {1, 4, 16} DBCs, one row per (stream,
/// capacity, DBC count) in that nesting order. The Markov rows were
/// recorded from the sort-based intra step and quadratic disjoint-set
/// scan, so every faster path must reproduce them exactly; the last six
/// rows are the only ones where dma2 keeps disjoint sets. No golden covers
/// afd-ge, dma-ge, afd-chen, afd-sr or the dma2-* strategies; tight
/// capacity (ceil(|V| / DBCs) slots per DBC) drives DMA's Vdj trim and its
/// spill into the disjoint DBCs.
constexpr std::uint64_t kPinnedShiftCosts[][15] = {
    {102571, 136547, 133299, 230025, 93349, 102571, 136547, 133299, 230025,
     93349, 102571, 136547, 133299, 230025, 93349},
    {40289, 39927, 50133, 62540, 39857, 46254, 48250, 61922, 75715, 46226,
     40289, 39927, 50133, 62540, 39857},
    {10552, 10552, 12733, 12598, 10542, 11333, 11333, 13642, 13448, 11216,
     10552, 10552, 12733, 12598, 10542},
    {102571, 136547, 133299, 230025, 93349, 102571, 136547, 133299, 230025,
     93349, 102571, 136547, 133299, 230025, 93349},
    {40289, 39927, 50133, 62540, 39857, 43261, 43951, 53911, 65589, 43253,
     40289, 39927, 50133, 62540, 39857},
    {10552, 10552, 12733, 12598, 10542, 11019, 11019, 13024, 12742, 10940,
     10552, 10552, 12733, 12598, 10542},
    {177821, 344098, 421455, 1218117, 162468, 177821, 344098, 421455, 1218117,
     162468, 177821, 344098, 421455, 1218117, 162468},
    {111163, 105585, 162967, 323429, 95283, 126832, 125504, 194602, 427738,
     111896, 111163, 105585, 162967, 323429, 95283},
    {40700, 43243, 58608, 75699, 37598, 44222, 46123, 61697, 82454, 40099,
     40700, 43243, 58608, 75699, 37598},
    {177821, 344098, 421455, 1218117, 162468, 177821, 344098, 421455, 1218117,
     162468, 177821, 344098, 421455, 1218117, 162468},
    {111163, 105585, 162967, 323429, 95283, 124275, 119933, 180354, 350061,
     111048, 111163, 105585, 162967, 323429, 95283},
    {40700, 43243, 58608, 75699, 37598, 43680, 46252, 60625, 80397, 39856,
     40700, 43243, 58608, 75699, 37598},
    {3069827, 4620560, 4421868, 7257801, 2334727, 3069827, 4620560, 4421868,
     7257801, 2334727, 3069827, 4620560, 4421868, 7257801, 2334727},
    {1422339, 1727869, 1702530, 2347350, 975608, 1628150, 1845919, 1942771,
     2710866, 1129571, 1422339, 1727869, 1702530, 2347350, 975608},
    {428338, 486916, 525766, 673132, 297803, 411182, 477007, 515059, 645821,
     294143, 428338, 486916, 525766, 673132, 297803},
    {3069827, 4620560, 4421868, 7257801, 2334727, 3069827, 4620560, 4421868,
     7257801, 2334727, 3069827, 4620560, 4421868, 7257801, 2334727},
    {1422339, 1727869, 1702530, 2347350, 975608, 1583267, 1789077, 1894768,
     2623899, 1123468, 1422339, 1727869, 1702530, 2347350, 975608},
    {428338, 486916, 525766, 673132, 297803, 461681, 542979, 582295, 742834,
     334911, 428338, 486916, 525766, 673132, 297803},
    {36858, 36086, 241211, 38858, 36061, 36858, 36086, 241211, 38858, 36061,
     36858, 36086, 241211, 38858, 36061},
    {10312, 10328, 35083, 10537, 10304, 10264, 10199, 42470, 10679, 10199,
     11300, 11111, 50280, 11594, 11244},
    {1252, 1252, 1262, 1253, 1252, 2675, 2675, 2728, 2676, 2675, 40, 40, 40, 40,
     40},
    {36858, 36086, 241211, 38858, 36061, 36858, 36086, 241211, 38858, 36061,
     36858, 36086, 241211, 38858, 36061},
    {10312, 10328, 35083, 10537, 10304, 18310, 18254, 42760, 18653, 18246,
     24621, 24619, 35611, 24655, 24615},
    {1252, 1252, 1262, 1253, 1252, 3027, 3027, 4342, 3081, 3027, 1230, 1230,
     2120, 1231, 1230},
};

TEST(StrategyRegistry, ConstructiveShiftCostsArePinned) {
  auto& registry = StrategyRegistry::Global();
  std::vector<std::string> names;
  for (const std::string& name : registry.Names()) {
    const auto info = registry.Describe(name);
    if (info->spec && !info->search_based) names.push_back(name);
  }
  ASSERT_EQ(names.size(), 15u);

  std::vector<AccessSequence> streams;
  {
    trace::MarkovParams params;
    params.num_vars = 64;
    params.length = 20'000;
    util::Rng rng(11);
    streams.push_back(trace::GenerateMarkov(params, rng));
  }
  {
    trace::MarkovParams params;
    params.num_vars = 400;
    params.length = 30'000;
    params.self_loop_prob = 0.4;
    util::Rng rng(12);
    streams.push_back(trace::GenerateMarkov(params, rng));
  }
  {
    // Most of the 2,000 variables are touched only a few times, so their
    // lifespans are short and Vdj is large.
    trace::MarkovParams params;
    params.num_vars = 2'000;
    params.length = 40'000;
    params.locality_window = 16;
    util::Rng rng(13);
    streams.push_back(trace::GenerateMarkov(params, rng));
  }
  {
    // Six phases over disjoint sets of eight variables each: variables of
    // different phases never overlap in lifespan, so multi-DMA finds
    // disjoint sets that carry real traffic (the Markov streams above
    // give it none, and dma2 returns exactly the afd cost on them).
    constexpr std::size_t kPhases = 6;
    constexpr std::size_t kPhaseVars = 8;
    AccessSequence& seq = streams.emplace_back();
    for (std::size_t v = 0; v < kPhases * kPhaseVars; ++v) {
      (void)seq.AddVariable(trace::MakeVariableName(v));
    }
    util::Rng rng(14);
    for (std::size_t phase = 0; phase < kPhases; ++phase) {
      trace::MarkovParams params;
      params.num_vars = kPhaseVars;
      params.length = 3'000;
      const AccessSequence local = trace::GenerateMarkov(params, rng);
      for (const trace::Access& access : local.accesses()) {
        seq.Append(static_cast<VariableId>(phase * kPhaseVars +
                                           access.variable % kPhaseVars),
                   access.type);
      }
    }
  }
  constexpr std::size_t kDisjointStream = 3;

  std::vector<std::vector<std::uint64_t>> rows;
  for (const AccessSequence& seq : streams) {
    for (const bool tight : {false, true}) {
      for (const std::uint32_t dbcs : {1u, 4u, 16u}) {
        const auto n = static_cast<std::uint32_t>(seq.num_variables());
        const std::uint32_t capacity =
            tight ? (n + dbcs - 1) / dbcs : kUnboundedCapacity;
        std::vector<std::uint64_t>& row = rows.emplace_back();
        for (const std::string& name : names) {
          const PlacementResult result =
              registry.Find(name)->Run({&seq, dbcs, capacity, {}});
          result.placement.CheckInvariants();
          EXPECT_TRUE(result.placement.IsComplete()) << name;
          row.push_back(result.cost);
        }
      }
    }
  }

  // On the disjoint-phase stream some dma2 cell must differ from its afd
  // cell (columns 10-14 are dma2-*, 0-4 the afd-* with the same intra
  // step), or the pin says nothing about multi-DMA's set placement.
  ASSERT_EQ(names[0], "afd-chen");
  ASSERT_EQ(names[10], "dma2-chen");
  bool dma2_differs = false;
  for (std::size_t r = 6 * kDisjointStream; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      dma2_differs = dma2_differs || rows[r][10 + c] != rows[r][c];
    }
  }
  EXPECT_TRUE(dma2_differs);

  bool same = std::size(kPinnedShiftCosts) == rows.size();
  for (std::size_t r = 0; same && r < rows.size(); ++r) {
    same = std::equal(rows[r].begin(), rows[r].end(), kPinnedShiftCosts[r]);
  }
  if (!same) {
    std::ostringstream table;
    for (const auto& row : rows) {
      table << "    {";
      for (std::size_t i = 0; i < row.size(); ++i) {
        table << (i ? ", " : "") << row[i];
      }
      table << "},\n";
    }
    ADD_FAILURE() << "constructive shift costs moved; measured rows:\n"
                  << table.str();
  }
}

}  // namespace
}  // namespace rtmp::core
