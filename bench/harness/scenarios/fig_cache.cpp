// fig_cache: hybrid-memory mode — the device as a managed cache tier
// (src/cache/) swept over working-set scale x capacity ratio x eviction
// policy.
//
// Two cache-hostile workloads (pointer-chase's permutation walks,
// kv-churn's sliding zipfian working set) run at two working-set scales
// through the online baseline and the built-in cache policies at 25%,
// 50% and 100% capacity. Cache cells charge eviction/fill sweeps as
// real device traffic and the backing store's latency on top, so
// "total shifts" and runtime already include the cost of missing.
//
// Two properties are checked:
//  * Oracle — every capacity-100% cell is bit-identical to the uncached
//    online-fixed-dma-sr cell (same engine recipe, same device): the
//    cache tier costs nothing when it does nothing.
//  * Placement-aware eviction pays — cache-shift-aware (victims ranked
//    by placement-peeked sweep cost) beats cache-lru on total shifts,
//    fill traffic included, on at least one capacity-constrained cell.
//
// Only constructive strategies are involved, so the scenario is
// effort-independent and fully golden-checked.
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_cell.h"
#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "harness/scenarios/scenarios.h"
#include "sim/experiment.h"
#include "util/stats.h"
#include "workloads/workload.h"

namespace rtmp::benchtool::scenarios {

namespace {

const std::vector<std::string> kWorkloads = {"pointer-chase", "kv-churn"};

/// The uncached twin of the built-in cache policies' engine recipe.
const std::string kOracle = "online-fixed-dma-sr";

const std::vector<std::string> kEvictions = {"cache-lru", "cache-lfu",
                                             "cache-sample",
                                             "cache-shift-aware"};

/// The capacity-constrained contenders of the headline comparison.
const std::vector<std::string> kConstrained = {
    "cache-lru-c25",         "cache-lru-c50",
    "cache-shift-aware-c25", "cache-shift-aware-c50",
    "cache-lfu-c50",         "cache-sample-c50",
};

/// Runs the matrix at one working-set scale; cells of the scaled run
/// are suffixed "@x2" so both scales coexist in one golden report.
std::vector<sim::RunResult> RunAtScale(ScenarioContext& ctx,
                                       sim::ExperimentOptions options,
                                       double scale,
                                       const std::string& suffix) {
  options.workload_scale = scale;
  std::vector<sim::RunResult> results = sim::RunMatrix(kWorkloads, options);
  for (sim::RunResult& result : results) result.benchmark += suffix;
  ctx.AddCells(results);
  return results;
}

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print(
      "== fig_cache: the device as a managed cache tier (working-set "
      "scale x capacity x eviction) ==\n\n");

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 8};
  options.strategies.clear();
  options.extra_strategies.push_back(kOracle);
  for (const std::string& eviction : kEvictions) {
    options.extra_strategies.push_back(eviction + "-c100");
  }
  for (const std::string& name : kConstrained) {
    options.extra_strategies.push_back(name);
  }
  ctx.Configure(options);  // threads, progress (effort unused: no search)

  std::vector<sim::RunResult> results = RunAtScale(ctx, options, 1.0, "");
  {
    const std::vector<sim::RunResult> scaled =
        RunAtScale(ctx, options, 2.0, "@x2");
    results.insert(results.end(), scaled.begin(), scaled.end());
  }
  const sim::ResultTable table(results);

  const std::vector<std::string> variants = {"pointer-chase", "kv-churn",
                                             "pointer-chase@x2",
                                             "kv-churn@x2"};

  // Oracle: every c100 cell == the uncached online cell, exactly.
  bool oracle_holds = true;
  for (const std::string& workload : variants) {
    for (const unsigned dbcs : options.dbc_counts) {
      const sim::RunMetrics& online = table.At(workload, dbcs, kOracle);
      for (const std::string& eviction : kEvictions) {
        const sim::RunMetrics& cached =
            table.At(workload, dbcs, eviction + "-c100");
        oracle_holds &= cached.shifts == online.shifts &&
                        cached.accesses == online.accesses &&
                        cached.runtime_ns == online.runtime_ns &&
                        cached.total_energy_pj() == online.total_energy_pj();
      }
    }
  }

  // Headline: placement-aware eviction vs. LRU at the same capacity,
  // total shifts with fill traffic included.
  util::TextTable out;
  out.SetHeader({"workload", "dbcs", "capacity", "lru", "shift-aware",
                 "aware/lru"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});
  bool aware_beats_lru = false;
  for (const std::string& workload : variants) {
    for (const unsigned dbcs : options.dbc_counts) {
      for (const std::string& capacity : {std::string("c25"),
                                          std::string("c50")}) {
        const std::uint64_t lru =
            table.At(workload, dbcs, "cache-lru-" + capacity).shifts;
        const std::uint64_t aware =
            table.At(workload, dbcs, "cache-shift-aware-" + capacity).shifts;
        aware_beats_lru |= aware < lru;
        const double ratio = lru == 0 ? 1.0
                                      : static_cast<double>(aware) /
                                            static_cast<double>(lru);
        const std::string tag =
            workload + "/" + std::to_string(dbcs) + "dbc/" + capacity;
        ctx.Scalar("fig_cache/aware_over_lru/" + tag, ratio, "x");
        out.AddRow({workload, std::to_string(dbcs), capacity,
                    std::to_string(lru), std::to_string(aware),
                    util::FormatFixed(ratio, 3)});
      }
    }
  }
  ctx.PrintTable(out);
  ctx.Print("(total shifts; cache cells INCLUDE eviction/fill traffic)\n\n");

  // Miss anatomy of one constrained cell, straight from the engine.
  {
    const std::string workload_name = "kv-churn";
    const unsigned dbcs = 4;
    const auto workload = workloads::ResolveWorkload(workload_name);
    const auto benchmark = workload->Generate(
        {options.workload_seed, options.workload_scale});
    for (const std::string& eviction :
         {std::string("cache-lru"), std::string("cache-shift-aware")}) {
      const auto policy =
          cache::CachePolicyRegistry::Global().Find(eviction + "-c50");
      cache::CacheStats totals;
      for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
        const auto& seq = benchmark.sequences[s];
        if (seq.num_variables() == 0) continue;
        const cache::CacheResult result =
            cache::RunCacheSequence(seq, s, dbcs, *policy, options,
                                    benchmark.name)
                .result;
        totals.accesses += result.cache.accesses;
        totals.hits += result.cache.hits;
        totals.misses += result.cache.misses;
        totals.writebacks += result.cache.writebacks;
        totals.fill_shifts += result.cache.fill_shifts;
      }
      const double hit_rate =
          totals.accesses == 0
              ? 0.0
              : static_cast<double>(totals.hits) /
                    static_cast<double>(totals.accesses);
      ctx.Print(
          "%s-c50 on %s, 4 DBCs: %llu accesses, %.1f%% hits, %llu misses "
          "(%llu writebacks), %llu fill shifts\n",
          eviction.c_str(), workload_name.c_str(),
          static_cast<unsigned long long>(totals.accesses), 100.0 * hit_rate,
          static_cast<unsigned long long>(totals.misses),
          static_cast<unsigned long long>(totals.writebacks),
          static_cast<unsigned long long>(totals.fill_shifts));
      ctx.Scalar("fig_cache/hit_rate/" + eviction + "-c50/kv-churn/4dbc",
                 hit_rate, "");
      ctx.Scalar("fig_cache/fill_shifts/" + eviction + "-c50/kv-churn/4dbc",
                 static_cast<double>(totals.fill_shifts), "shifts");
    }
    ctx.Print("\n");
  }

  ctx.Check(
      "every capacity-100% cache cell equals the uncached "
      "online-fixed-dma-sr cell exactly (oracle)",
      oracle_holds);
  ctx.Check(
      "cache-shift-aware beats cache-lru on total shifts (incl. fill "
      "traffic) on >= 1 capacity-constrained cell",
      aware_beats_lru);
}

}  // namespace

void RegisterFigCache(ScenarioRegistry& registry) {
  registry.Register({"fig_cache",
                     "hybrid-memory cache tier: working-set scale x "
                     "capacity x eviction policy (fills charged)",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios
