// tiered-serve: PlacementServices with 4 shards and 48 tenants each, in
// hybrid-memory mode (cache tier on, cache-shift-aware eviction over a
// resident set of half of each shard's variables) with static shard
// engines. Write-heavy tenants (kv-churn, hash-join) run beside
// read-mostly ones (pointer-chase, stream-scan), so arbitration,
// eviction, fills and dirty writebacks do most of the work.
//
// A pass serves eight independent devices ("racks") one after the other:
// one rack's modelled totals move by about 4% between seeds, the sum over
// eight racks by about a third of that.
#include <span>

#include "cache/engine.h"
#include "online/policy.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "workloads.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

namespace serve = rtmp::serve;
namespace trace = rtmp::trace;

constexpr const char* kFamilies[] = {"kv-churn", "hash-join", "pointer-chase",
                                     "stream-scan"};
constexpr std::size_t kRacks = 8;
/// Generations per family and rack; each yields the family's three
/// sequences, so a rack admits 4 x 4 x 3 = 48 tenants.
constexpr std::size_t kDrawsPerFamily = 4;
constexpr double kScale = 16.0;
constexpr unsigned kShards = 4;
constexpr unsigned kDbcs = 16;
constexpr double kCapacityRatio = 0.5;
/// Engine window (one arbitration turn serves one window of one tenant).
constexpr std::size_t kWindow = 256;

struct Tenant {
  std::string name;
  trace::AccessSequence sequence;
};

/// One device with its service configuration and tenants.
struct Rack {
  std::vector<Tenant> tenants;
  rtmp::rtm::RtmConfig device;
  serve::ServeConfig config;
  std::uint64_t accesses = 0;
};

serve::ServeConfig MakeServeConfig(bool cache, const rtmp::rtm::RtmConfig& device,
                                   std::uint64_t seed) {
  serve::ServeConfig config;
  config.num_shards = kShards;
  config.engine = rtmp::online::OnlinePolicyRegistry::Global()
                      .Find("online-static-dma-sr")
                      ->MakeConfig();
  config.engine.window_accesses = kWindow;
  config.engine.strategy_options.cost.initial_alignment =
      device.initial_alignment;
  config.engine.strategy_options.ga.seed = DeriveSeed(seed, "strategy/ga");
  config.engine.strategy_options.rw.seed = DeriveSeed(seed, "strategy/rw");
  config.engine.obs = {};
  config.cache.enabled = cache;
  config.cache.eviction = "cache-shift-aware";
  config.cache.capacity_ratio = kCapacityRatio;
  config.cache.eviction_seed = DeriveSeed(seed, "eviction");
  config.obs = {};
  return config;
}

Rack MakeRack(std::uint64_t seed, Tracer& tracer) {
  Rack rack;
  {
    const Tracer::Scope span = tracer.Open("workloads.generate");
    for (const char* family : kFamilies) {
      const auto workload =
          rtmp::workloads::WorkloadRegistry::Global().Find(family);
      for (std::size_t d = 0; d < kDrawsPerFamily; ++d) {
        const std::string draw = std::string(family) + "/" + std::to_string(d);
        rtmp::offsetstone::Benchmark benchmark =
            workload->Generate({DeriveSeed(seed, draw), kScale});
        for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
          rack.tenants.push_back({draw + "/" + std::to_string(s),
                                  std::move(benchmark.sequences[s])});
        }
      }
    }
  }
  std::size_t total_vars = 0;
  for (const Tenant& tenant : rack.tenants) {
    total_vars += tenant.sequence.num_variables();
    rack.accesses += tenant.sequence.size();
  }
  rack.device = rtmp::sim::CellConfig(kDbcs, total_vars);
  rack.device.initial_alignment = rtmp::rtm::InitialAlignment::kZero;
  rack.config = MakeServeConfig(true, rack.device, seed);
  return rack;
}

serve::ServeResult RunService(const serve::ServeConfig& config,
                              const Rack& rack, Tracer& t,
                              const char* span_name) {
  serve::PlacementService service(config, rack.device);
  for (const Tenant& tenant : rack.tenants) {
    (void)service.OpenSession(tenant.name, tenant.sequence);
  }
  const Tracer::Scope span = t.Open(span_name);
  return service.Run();
}

/// Gates one rack's result; returns the sessions that failed.
std::size_t CheckRack(const Rack& rack, const serve::ServeResult& result,
                      Report& report, std::size_t index) {
  std::uint64_t service = 0;
  std::uint64_t migration = 0;
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t fill_shifts = 0;
  rtmp::obs::Histogram merged;
  std::size_t unserved = 0;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const serve::TenantStats& tenant = result.tenants[i];
    service += tenant.service_shifts;
    migration += tenant.migration_shifts;
    accesses += tenant.accesses;
    misses += tenant.cache.misses;
    fill_shifts += tenant.cache.fill_shifts;
    merged.Merge(tenant.latency_hist);
    if (tenant.accesses != rack.tenants[i].sequence.size()) ++unserved;
  }
  const bool sums_ok = service == result.service_shifts &&
                       migration == result.migration_shifts &&
                       accesses == rack.accesses &&
                       misses == result.cache.misses &&
                       fill_shifts == result.cache.fill_shifts;
  const bool decompose_ok =
      result.total_shifts ==
      result.service_shifts + result.migration_shifts + result.cache.fill_shifts;
  const bool hist_ok = merged == result.latency_hist;
  const std::string rack_name = "rack " + std::to_string(index) + ": ";
  report.Gate(rack_name + "per-tenant stats sum to the device totals", 1,
              sums_ok ? 0 : 1);
  report.Gate(rack_name + "total shifts == service + migration + fill", 1,
              decompose_ok ? 0 : 1);
  report.Gate(rack_name + "tenant latency histograms merge to the device's", 1,
              hist_ok ? 0 : 1);
  report.Gate(rack_name + "every tenant fully served", rack.tenants.size(),
              unserved);
  return sums_ok && decompose_ok && hist_ok ? unserved : rack.tenants.size();
}

}  // namespace

void RunTieredServe(const RunSettings& settings, Tracer& tracer,
                    Report& report) {
  std::vector<Rack> racks;
  std::uint64_t accesses = 0;
  std::size_t sessions = 0;
  std::uint64_t generated = 0;
  const double setup_s = MedianSetupSeconds([&] {
    racks.clear();
    for (std::size_t r = 0; r < kRacks; ++r) {
      racks.push_back(MakeRack(
          DeriveSeed(settings.seed, "rack/" + std::to_string(r)), tracer));
    }
    const Tracer::Scope span = tracer.Open("serve.sessions");
    for (const Rack& rack : racks) {
      generated += rack.accesses;
      serve::PlacementService service(rack.config, rack.device);
      for (const Tenant& tenant : rack.tenants) {
        (void)service.OpenSession(tenant.name, tenant.sequence);
      }
    }
  });
  for (const Rack& rack : racks) {
    accesses += rack.accesses;
    sessions += rack.tenants.size();
  }
  report.Setting("service", "8 racks x (4 shards, 48 tenants, static dma-sr "
                            "shard engines, 16 DBCs)");
  report.Setting("cache tier", "cache-shift-aware, capacity ratio 0.5");
  report.Setting("device", "cold (ports at offset 0)");

  std::vector<serve::ServeResult> results(kRacks);
  const TimedPhase phase = TimePasses(settings, tracer, [&](Tracer& t) {
    Fingerprint print;
    for (std::size_t r = 0; r < kRacks; ++r) {
      results[r] = RunService(racks[r].config, racks[r], t, "serve.run");
      const serve::ServeResult& result = results[r];
      for (const serve::TenantStats& tenant : result.tenants) {
        print.Add(tenant.service_shifts);
        print.Add(tenant.cache.misses);
        print.Add(tenant.cache.writebacks);
        print.Add(tenant.exposed_latency_ns);
      }
      print.Add(result.total_shifts);
      print.Add(result.cache.fill_shifts);
      print.Add(result.makespan_ns);
      print.Add(result.energy.total_pj());
      print.Add(result.fairness);
      print.Add(result.latency_hist.total());
      print.Add(result.latency_hist.Quantile(0.50));
      print.Add(result.latency_hist.Quantile(0.99));
    }
    return print;
  });

  // Oracles the service guarantees: per-tenant attribution sums to the
  // device totals, total shifts decompose into service + migration +
  // fill, and the tenant latency histograms merge to the device one.
  std::size_t failed = 0;
  SimTotals totals;
  rtmp::obs::Histogram latency;
  rtmp::cache::CacheStats cache;
  double backing_share_num = 0.0;
  double backing_share_den = 0.0;
  rtmp::rtm::ControllerStats shard_stats;
  for (std::size_t r = 0; r < kRacks; ++r) {
    const serve::ServeResult& result = results[r];
    failed += CheckRack(racks[r], result, report, r);
    totals.shifts += result.total_shifts;
    totals.runtime_ns += result.makespan_ns;
    totals.energy_pj += result.energy.total_pj();
    latency.Merge(result.latency_hist);
    cache.accesses += result.cache.accesses;
    cache.hits += result.cache.hits;
    cache.misses += result.cache.misses;
    cache.writebacks += result.cache.writebacks;
    cache.fill_shifts += result.cache.fill_shifts;
    backing_share_num += result.cache.backing_ns;
    backing_share_den += result.makespan_ns + result.cache.backing_ns;
    for (const serve::ShardStats& shard : result.shards) {
      shard_stats.shift_busy_ns += shard.result.stats.shift_busy_ns;
      shard_stats.exposed_shift_ns += shard.result.stats.exposed_shift_ns;
    }
  }
  ReportCommon(report, settings, setup_s, phase, accesses, totals, sessions,
               failed);

  // The device histograms have log2 buckets; Quantile reads the upper
  // bound of the bucket holding the quantile sample.
  const std::uint64_t turns = latency.total();
  const auto histogram_quantile = [&](double q) -> std::optional<double> {
    if (!EnoughSamplesBeyond(turns, q)) return std::nullopt;
    return static_cast<double>(latency.Quantile(q));
  };
  for (const auto& [name, q] : {std::pair{"sim_window_p50_ns", 0.50},
                                std::pair{"sim_window_p99_ns", 0.99}}) {
    if (const auto value = histogram_quantile(q)) {
      report.Info(std::string(name) + " (n = " + std::to_string(turns) + ")",
                  *value, "ns");
    } else {
      report.Info(std::string(name) + " refused: < 10 samples beyond it",
                  static_cast<double>(turns), "turns");
    }
  }
  if (!settings.trace) return;

  // ---- per-layer ledger ----------------------------------------------------
  report.Layer("workloads.generate_macc_s",
               static_cast<double>(generated) /
                   tracer.Total("workloads.generate") / 1e6);
  report.Layer("serve.run_macc_s", static_cast<double>(accesses) /
                                       tracer.Total("serve.run") / 1e6);
  for (const Rack& rack : racks) {
    (void)RunService(MakeServeConfig(false, rack.device, settings.seed), rack,
                     tracer, "serve.plain_run");
  }
  report.Layer("serve.plain_run_macc_s", static_cast<double>(accesses) /
                                             tracer.Total("serve.plain_run") /
                                             1e6);
  report.Layer("serve.turns", static_cast<double>(turns));
  double fairness = 0.0;
  for (const serve::ServeResult& result : results) fairness += result.fairness;
  report.Layer("serve.fairness", fairness / static_cast<double>(kRacks));
  report.Layer("serve.sim_window_p50_ns", histogram_quantile(0.50).value_or(0.0));
  report.Layer("serve.sim_window_p99_ns", histogram_quantile(0.99).value_or(0.0));

  // Cache tier alone: each tenant through its own CacheEngine at the
  // service's capacity ratio, on a one-shard device.
  std::vector<const trace::AccessSequence*> seqs;
  for (const Rack& rack : racks) {
    for (const Tenant& tenant : rack.tenants) seqs.push_back(&tenant.sequence);
  }
  const serve::ServeConfig& config = racks.front().config;
  for (const trace::AccessSequence* seq : seqs) {
    rtmp::cache::CacheConfig cache_config;
    cache_config.eviction = config.cache.eviction;
    cache_config.capacity_ratio = kCapacityRatio;
    cache_config.engine = config.engine;
    cache_config.eviction_seed = config.cache.eviction_seed;
    cache_config.capacity_slots =
        rtmp::cache::ResolveCapacity(cache_config, seq->num_variables());
    rtmp::rtm::RtmConfig shard =
        rtmp::sim::CellConfig(kDbcs / kShards, cache_config.capacity_slots);
    shard.initial_alignment = rtmp::rtm::InitialAlignment::kZero;
    rtmp::cache::CacheEngine engine(cache_config, shard);
    for (trace::VariableId v = 0; v < seq->num_variables(); ++v) {
      (void)engine.RegisterVariable(seq->name_of(v));
    }
    const Tracer::Scope span = tracer.Open("cache.feed");
    engine.Feed(std::span<const trace::Access>(seq->accesses()));
    (void)engine.Finish();
  }
  report.Layer("cache.feed_macc_s", static_cast<double>(accesses) /
                                        tracer.Total("cache.feed") / 1e6);
  report.Layer("cache.hit_ratio", static_cast<double>(cache.hits) /
                                      static_cast<double>(cache.accesses));
  report.Layer("cache.fill_shift_share", static_cast<double>(cache.fill_shifts) /
                                             static_cast<double>(totals.shifts));
  report.Layer("cache.writeback_ratio",
               cache.misses == 0 ? 0.0
                                 : static_cast<double>(cache.writebacks) /
                                       static_cast<double>(cache.misses));
  report.Layer("cache.backing_share", backing_share_num / backing_share_den);

  PlaceProbe place;
  const std::vector<PlacedSequence> placed = ProbePlace(
      tracer, seqs, kDbcs / kShards, "dma-sr", 1.0, settings.seed, place);
  const RtmProbe rtm_probe =
      ProbeExecuteBatch(tracer, placed, config.engine.controller);
  report.Layer("rtm.execute_batch_macc_s", rtm_probe.macc_s);
  report.Layer("rtm.shifts_per_access", static_cast<double>(totals.shifts) /
                                            static_cast<double>(accesses));
  report.Layer("rtm.exposed_shift_share", ExposedShare(shard_stats));
}

}  // namespace perfbench
