// placement_explorer — a small command-line driver over the whole library.
//
//   $ ./placement_explorer                          # demo + help
//   $ ./placement_explorer suite gsm                # inspect a workload
//   $ ./placement_explorer export gsm gsm.trace     # write it as a trace
//   $ ./placement_explorer export gsm gsm.rtb      # ... or binary format
//   $ ./placement_explorer place kv-churn dma-sr 4
//   $ ./placement_explorer place file.trace dma-sr 4
//   $ ./placement_explorer compare stencil 8 --json out.json
//   $ ./placement_explorer strategies --json strategies.json
//   $ ./placement_explorer workloads
//   $ ./placement_explorer online "phased(gemm-tiled,stream-scan)"
//       online-ewma-dma-sr 4       (one command line)
//   $ ./placement_explorer serve gsm serve-2s-ewma-dma-sr 8
//   $ ./placement_explorer cache kv-churn cache-shift-aware-c50 4
//
// This is what a user integrating rtmplace into their own flow would
// script against: pick a workload (any registered name, a
// phased(a,b,...) splice, or an external trace file, text or binary),
// pick a strategy — or an online policy, served through the adaptive
// engine with migration charged; or a serve policy, every sequence a
// tenant of one multi-tenant device; or a cache policy, the device a
// bounded resident set with misses filled from a backing store — and
// inspect the resulting layout and costs.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "cache/cache_cell.h"
#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "core/cost_model.h"
#include "core/inter_dma.h"
#include "core/strategy_registry.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_recorder.h"
#include "offsetstone/suite.h"
#include "online/online_cell.h"
#include "online/policy.h"
#include "rtm/config.h"
#include "serve/serve_cell.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trace/liveliness.h"
#include "trace/trace_io.h"
#include "trace/trace_stream.h"
#include "trace/variable_stats.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/phased.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

int Usage() {
  std::printf(
      "usage:\n"
      "  placement_explorer suite <workload>             inspect a "
      "workload's sequences\n"
      "  placement_explorer export <workload> <file>     write it in trace "
      "format (.rtb = binary)\n"
      "  placement_explorer place <workload> <strategy> <dbcs>\n"
      "  placement_explorer compare <workload> <dbcs> [--json <file>]\n"
      "  placement_explorer strategies [--json <file>]\n"
      "  placement_explorer workloads [--json <file>]\n"
      "  placement_explorer online <workload> <policy> <dbcs> [--json "
      "<file>] [--trace-out <file>]\n"
      "  placement_explorer serve <workload> <serve-policy> <dbcs> [--json "
      "<file>] [--trace-out <file>]\n"
      "                                                  each sequence a "
      "tenant\n"
      "  placement_explorer cache <workload> <cache-policy> <dbcs> [--json "
      "<file>] [--trace-out <file>]\n"
      "                                                  the device as a "
      "cache tier\n"
      "\nonline/serve/cache: --json writes a metrics snapshot (counters + "
      "latency\nhistograms), --trace-out a Chrome trace-event JSON in "
      "simulated time\n(open in Perfetto / chrome://tracing).\n"
      "\n<workload> is a registered workload name, a phased(a,b,...) "
      "splice of\nregistered workloads, or a trace-file path (text or "
      "binary).\n"
      "\nstrategies (from the registry):");
  for (const auto& name : core::StrategyRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nworkloads (from the registry):");
  for (const auto& name : workloads::WorkloadRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nonline policies (from the registry):");
  for (const auto& name : online::OnlinePolicyRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\nserve policies (from the registry):");
  for (const auto& name : serve::ServePolicyRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\ncache policies (from the registry):");
  for (const auto& name : cache::CachePolicyRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  return 2;
}

/// One row of a registry listing: name, one registry-specific attribute,
/// and the one-line summary.
struct RegistryRow {
  std::string name;
  std::string attribute;
  std::string summary;
};

/// Shared body of the `strategies` and `workloads` subcommands: renders
/// the rows as a table on stdout and, when `json_path` is non-empty,
/// writes the same listing as JSON (schema shared with `compare --json`).
int ListRegistry(const char* registry, const char* attribute_label,
                 const char* attribute_key,
                 const std::vector<RegistryRow>& rows,
                 const std::string& json_path) {
  util::TextTable table;
  table.SetHeader({"name", attribute_label, "description"});
  table.SetAlignments(
      {util::Align::kLeft, util::Align::kLeft, util::Align::kLeft});
  for (const RegistryRow& row : rows) {
    table.AddRow({row.name, row.attribute, row.summary});
  }
  std::fputs(table.Render().c_str(), stdout);
  if (json_path.empty()) return 0;

  std::string json;
  util::JsonWriter writer(&json);
  writer.BeginObject();
  writer.Member("schema_version", 1);
  writer.Member("tool", "placement_explorer");
  writer.Member("registry", registry);
  writer.Key("entries");
  writer.BeginArray();
  for (const RegistryRow& row : rows) {
    writer.BeginObject();
    writer.Member("name", row.name);
    writer.Member(attribute_key, row.attribute);
    writer.Member("summary", row.summary);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  out << json << "\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

int CmdStrategies(const std::string& json_path) {
  auto& registry = core::StrategyRegistry::Global();
  std::vector<RegistryRow> rows;
  for (const auto& name : registry.Names()) {
    const auto info = registry.Describe(name);
    rows.push_back({name, info->search_based ? "yes" : "no", info->summary});
  }
  return ListRegistry("strategies", "search-based", "search_based", rows,
                      json_path);
}

int CmdWorkloads(const std::string& json_path) {
  auto& registry = workloads::WorkloadRegistry::Global();
  std::vector<RegistryRow> rows;
  for (const auto& name : registry.Names()) {
    const auto info = registry.Describe(name);
    rows.push_back({name, info->family, info->summary});
  }
  // The splice combinator is spec syntax, not a registry entry — list it
  // alongside so it is discoverable where workloads are discovered.
  rows.push_back({"phased(a,b,...)", "combinator",
                  "splice any workloads above into one phase-change "
                  "workload (shared positional variable space)"});
  return ListRegistry("workloads", "family", "family", rows, json_path);
}

/// Resolves a workload spec (registry name or trace-file path) and
/// materializes it at default seed/scale.
offsetstone::Benchmark LoadBenchmark(const std::string& spec) {
  const auto workload = workloads::ResolveWorkload(spec);
  if (!workload) {
    throw std::runtime_error(
        "'" + spec +
        "' is neither a registered workload (try `placement_explorer "
        "workloads`) nor a trace file");
  }
  return workload->Generate({});
}

void DescribeSequence(const trace::AccessSequence& seq, const char* name) {
  const auto stats = trace::ComputeVariableStats(seq);
  const auto disjoint = core::SelectDisjointVariables(stats);
  std::uint64_t disjoint_traffic = 0;
  for (const auto v : disjoint) disjoint_traffic += stats[v].frequency;
  std::printf(
      "  %-12s %5zu vars %6zu accesses %5zu writes  disjoint: %zu vars "
      "(%4.1f%% traffic), %llu disjoint pairs\n",
      name, seq.num_variables(), seq.size(), seq.CountWrites(),
      disjoint.size(),
      seq.empty() ? 0.0
                  : 100.0 * static_cast<double>(disjoint_traffic) /
                        static_cast<double>(seq.size()),
      static_cast<unsigned long long>(trace::CountDisjointPairs(stats)));
}

int CmdSuite(const std::string& spec) {
  const auto benchmark = LoadBenchmark(spec);
  std::printf("benchmark %s (%zu sequences):\n", benchmark.name.c_str(),
              benchmark.sequences.size());
  for (std::size_t i = 0; i < benchmark.sequences.size(); ++i) {
    DescribeSequence(benchmark.sequences[i],
                     ("seq" + std::to_string(i)).c_str());
  }
  return 0;
}

int CmdExport(const std::string& spec, const std::string& path) {
  trace::TraceFile file;
  const bool generated = workloads::WorkloadRegistry::Global().Contains(spec) ||
                         workloads::ParsePhasedSpec(spec).has_value();
  if (!generated) {
    // Trace-file spec: read the file directly so format conversion
    // (text <-> binary) preserves the original sequence names, which
    // the Benchmark type does not carry.
    file = trace::LoadTraceFile(spec);
  } else {
    const auto benchmark = LoadBenchmark(spec);
    file.benchmark = benchmark.name;
    for (std::size_t i = 0; i < benchmark.sequences.size(); ++i) {
      file.sequence_names.push_back("seq" + std::to_string(i));
      file.sequences.push_back(benchmark.sequences[i]);
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  if (path.ends_with(".rtb")) {
    WriteBinaryTrace(out, file);
  } else {
    WriteTrace(out, file);
  }
  std::printf("wrote %zu sequences to %s\n", file.sequences.size(),
              path.c_str());
  return 0;
}

int CmdPlace(const std::string& spec, const std::string& strategy_name,
             unsigned dbcs) {
  const auto strategy = core::StrategyRegistry::Global().Find(strategy_name);
  if (!strategy) {
    std::fprintf(stderr,
                 "unknown strategy '%s' (try `placement_explorer "
                 "strategies`)\n",
                 strategy_name.c_str());
    return 1;
  }
  const auto benchmark = LoadBenchmark(spec);
  rtm::RtmConfig config = rtm::RtmConfig::Paper(dbcs);
  core::StrategyOptions options;
  core::ScaleSearchEffort(options, 0.1);
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const auto& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    rtm::RtmConfig cfg = config;
    if (seq.num_variables() > cfg.word_capacity()) {
      cfg.domains_per_dbc =
          static_cast<unsigned>((seq.num_variables() + dbcs - 1) / dbcs);
    }
    const auto placed = core::RunTimed(
        *strategy, {&seq, cfg.total_dbcs(), cfg.domains_per_dbc, options,
                    /*compute_cost=*/false});
    const auto result = sim::Simulate(seq, placed.placement, cfg);
    std::printf("sequence %zu: %llu shifts, %.1f ns, %.1f pJ (placed in "
                "%.2f ms)\n",
                s, static_cast<unsigned long long>(result.stats.shifts),
                result.stats.runtime_ns, result.energy.total_pj(),
                placed.wall_ms);
    for (std::uint32_t d = 0; d < placed.placement.num_dbcs(); ++d) {
      if (placed.placement.dbc(d).empty()) continue;
      std::printf("  DBC%u:", d);
      for (const auto v : placed.placement.dbc(d)) {
        std::printf(" %s", seq.name_of(v).c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}

int CmdCompare(const std::string& spec, unsigned dbcs,
               const std::string& json_path) {
  const auto benchmark = LoadBenchmark(spec);
  core::StrategyOptions options;
  core::ScaleSearchEffort(options, 0.1);
  util::TextTable table;
  table.SetHeader({"strategy", "shifts", "runtime [us]", "energy [nJ]"});
  table.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});
  std::string json;
  util::JsonWriter writer(&json);
  writer.BeginObject();
  writer.Member("schema_version", 1);
  writer.Member("tool", "placement_explorer");
  writer.Member("workload", spec);
  writer.Member("benchmark", benchmark.name);
  writer.Member("dbcs", dbcs);
  writer.Key("strategies");
  writer.BeginArray();
  for (const char* name : {"afd-ofu", "afd-sr", "dma-ofu", "dma-chen",
                           "dma-sr", "dma-ge", "dma2-sr", "ga", "rw"}) {
    const auto strategy = core::StrategyRegistry::Global().Find(name);
    std::uint64_t shifts = 0;
    double runtime = 0.0;
    double energy = 0.0;
    for (const auto& seq : benchmark.sequences) {
      if (seq.num_variables() == 0) continue;
      rtm::RtmConfig cfg = rtm::RtmConfig::Paper(dbcs);
      if (seq.num_variables() > cfg.word_capacity()) {
        cfg.domains_per_dbc =
            static_cast<unsigned>((seq.num_variables() + dbcs - 1) / dbcs);
      }
      const auto placed =
          strategy->Run({&seq, cfg.total_dbcs(), cfg.domains_per_dbc, options,
                         /*compute_cost=*/false});
      const auto result = sim::Simulate(seq, placed.placement, cfg);
      shifts += result.stats.shifts;
      runtime += result.stats.runtime_ns;
      energy += result.energy.total_pj();
    }
    writer.BeginObject();
    writer.Member("strategy", name);
    writer.Member("shifts", shifts);
    writer.Member("runtime_ns", runtime);
    writer.Member("energy_pj", energy);
    writer.EndObject();
    table.AddRow({name, std::to_string(shifts),
                  util::FormatFixed(runtime / 1e3, 2),
                  util::FormatFixed(energy / 1e3, 2)});
  }
  writer.EndArray();
  writer.EndObject();
  std::fputs(table.Render().c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << json << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

/// Observability sinks for the online/serve/cache commands: live only
/// when the matching flag was given, so instrumentation stays disabled
/// (null sinks) on a plain run.
struct ExplorerObs {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  std::string json_path;
  std::string trace_path;

  [[nodiscard]] obs::ObsConfig Config() {
    obs::ObsConfig config;
    if (!json_path.empty()) config.metrics = &metrics;
    if (!trace_path.empty()) config.trace = &trace;
    return config;
  }

  /// Writes whichever outputs were requested; returns 0, or 1 on an
  /// unwritable path.
  [[nodiscard]] int Write() const {
    if (!json_path.empty()) {
      std::ofstream out(json_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
      }
      out << metrics.ToJson() << "\n";
      std::printf("wrote metrics %s\n", json_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      out << trace.ToJson(/*indent=*/0) << "\n";
      std::printf("wrote trace %s (%zu events)\n", trace_path.c_str(),
                  trace.size());
    }
    return 0;
  }
};

int CmdOnline(const std::string& spec, const std::string& policy_name,
              unsigned dbcs, ExplorerObs& obs) {
  const auto policy = online::OnlinePolicyRegistry::Global().Find(policy_name);
  if (!policy) {
    std::fprintf(stderr,
                 "unknown online policy '%s' (the usage footer lists the "
                 "registered ones)\n",
                 policy_name.c_str());
    return 1;
  }
  const auto benchmark = LoadBenchmark(spec);
  const auto& info = policy->Describe();
  std::printf("online %s on %s, %u DBCs (%s)\n\n", info.name.c_str(),
              benchmark.name.c_str(), dbcs, info.summary.c_str());

  sim::ExperimentOptions options;
  options.search_effort = sim::SearchEffortFromEnv(0.1);
  options.obs = obs.Config();
  std::uint64_t total_shifts = 0;
  std::uint64_t total_migration_shifts = 0;
  std::size_t total_migrations = 0;
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const auto& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    const online::OnlineResult result =
        online::RunOnlineSequence(seq, s, dbcs, *policy, options,
                                  benchmark.name)
            .result;

    std::printf("sequence %zu: %zu windows, %zu migrations (%zu vars), "
                "%llu shifts = %llu service + %llu migration, %.1f ns\n",
                s, result.windows.size(), result.migrations,
                result.migrated_vars,
                static_cast<unsigned long long>(result.amortized_shifts),
                static_cast<unsigned long long>(result.service_shifts),
                static_cast<unsigned long long>(result.migration_shifts),
                result.stats.makespan_ns);
    util::TextTable table;
    table.SetHeader({"window", "accesses", "drift", "phase", "migrated",
                     "mig shifts", "service shifts"});
    table.SetAlignments({util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kLeft,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
    for (std::size_t w = 0; w < result.windows.size(); ++w) {
      const online::WindowRecord& record = result.windows[w];
      table.AddRow({std::to_string(w), std::to_string(record.accesses),
                    util::FormatFixed(record.drift, 3),
                    record.phase_change ? "yes" : "",
                    std::to_string(record.migrated_vars),
                    std::to_string(record.migration_shifts),
                    std::to_string(record.service_shifts)});
    }
    std::fputs(table.Render().c_str(), stdout);
    total_shifts += result.amortized_shifts;
    total_migration_shifts += result.migration_shifts;
    total_migrations += result.migrations;
  }
  std::printf("\ntotal: %llu shifts (%llu from %zu migrations)\n",
              static_cast<unsigned long long>(total_shifts),
              static_cast<unsigned long long>(total_migration_shifts),
              total_migrations);
  return obs.Write();
}

int CmdServe(const std::string& spec, const std::string& policy_name,
             unsigned dbcs, ExplorerObs& obs) {
  const auto policy = serve::ServePolicyRegistry::Global().Find(policy_name);
  if (!policy) {
    std::fprintf(stderr,
                 "unknown serve policy '%s' (the usage footer lists the "
                 "registered ones)\n",
                 policy_name.c_str());
    return 1;
  }
  const auto benchmark = LoadBenchmark(spec);
  const auto& info = policy->Describe();
  std::printf("serve %s on %s, %u DBCs (%s)\n\n", info.name.c_str(),
              benchmark.name.c_str(), dbcs, info.summary.c_str());

  sim::ExperimentOptions options;
  options.search_effort = sim::SearchEffortFromEnv(0.1);
  options.obs = obs.Config();
  const serve::ServeResult result =
      serve::RunServeBenchmark(benchmark, dbcs, *policy, options).result;

  util::TextTable tenants;
  tenants.SetHeader({"tenant", "shard", "accesses", "windows", "shifts",
                     "migrations", "denials", "mean win lat [ns]",
                     "p50 [ns]", "p99 [ns]"});
  tenants.SetAlignments({util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight});
  for (const serve::TenantStats& tenant : result.tenants) {
    tenants.AddRow(
        {tenant.name, std::to_string(tenant.shard),
         std::to_string(tenant.accesses), std::to_string(tenant.windows),
         std::to_string(tenant.service_shifts + tenant.migration_shifts),
         std::to_string(tenant.migrations),
         std::to_string(tenant.budget_denials),
         util::FormatFixed(tenant.mean_window_latency_ns(), 1),
         std::to_string(tenant.latency_hist.Quantile(0.5)),
         std::to_string(tenant.latency_hist.Quantile(0.99))});
  }
  std::fputs(tenants.Render().c_str(), stdout);

  util::TextTable shards;
  shards.SetHeader(
      {"shard", "DBCs", "tenants", "shifts", "migrations", "makespan [ns]"});
  shards.SetAlignments({util::Align::kRight, util::Align::kLeft,
                        util::Align::kRight, util::Align::kRight,
                        util::Align::kRight, util::Align::kRight});
  for (const serve::ShardStats& shard : result.shards) {
    shards.AddRow(
        {std::to_string(shard.index),
         std::to_string(shard.first_dbc) + ".." +
             std::to_string(shard.first_dbc + shard.num_dbcs - 1),
         std::to_string(shard.tenants.size()),
         std::to_string(shard.result.amortized_shifts),
         std::to_string(shard.result.migrations),
         util::FormatFixed(shard.result.stats.makespan_ns, 1)});
  }
  std::printf("\n");
  std::fputs(shards.Render().c_str(), stdout);

  std::printf(
      "\ntotal: %llu shifts (%llu service + %llu migration), makespan "
      "%.1f ns\nfairness %.4f, budget %llu/%llu spent, %zu denials\n",
      static_cast<unsigned long long>(result.total_shifts),
      static_cast<unsigned long long>(result.service_shifts),
      static_cast<unsigned long long>(result.migration_shifts),
      result.makespan_ns, result.fairness,
      static_cast<unsigned long long>(result.budget_spent),
      static_cast<unsigned long long>(result.budget_granted),
      result.budget_denials);
  std::printf(
      "exposed window latency (device): p50 %llu ns, p99 %llu ns over "
      "%llu turns\n",
      static_cast<unsigned long long>(result.latency_hist.Quantile(0.5)),
      static_cast<unsigned long long>(result.latency_hist.Quantile(0.99)),
      static_cast<unsigned long long>(result.latency_hist.total()));
  return obs.Write();
}

int CmdCache(const std::string& spec, const std::string& policy_name,
             unsigned dbcs, ExplorerObs& obs) {
  const auto policy = cache::CachePolicyRegistry::Global().Find(policy_name);
  if (!policy) {
    std::fprintf(stderr,
                 "unknown cache policy '%s' (the usage footer lists the "
                 "registered ones)\n",
                 policy_name.c_str());
    return 1;
  }
  const auto benchmark = LoadBenchmark(spec);
  const auto& info = policy->Describe();
  std::printf("cache %s on %s, %u DBCs (%s)\n\n", info.name.c_str(),
              benchmark.name.c_str(), dbcs, info.summary.c_str());

  sim::ExperimentOptions options;
  options.search_effort = sim::SearchEffortFromEnv(0.1);
  options.obs = obs.Config();
  cache::CacheStats totals;
  std::uint64_t total_shifts = 0;
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const auto& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    const std::size_t capacity =
        cache::ResolveCapacity(policy->MakeConfig(), seq.num_variables());
    const cache::CacheResult result =
        cache::RunCacheSequence(seq, s, dbcs, *policy, options,
                                benchmark.name)
            .result;

    const cache::CacheStats& c = result.cache;
    const double hit_rate =
        c.accesses == 0 ? 0.0
                        : static_cast<double>(c.hits) /
                              static_cast<double>(c.accesses);
    std::printf(
        "sequence %zu: %zu vars in %zu frames, %llu accesses, %.1f%% hits\n"
        "  %llu misses -> %llu fills + %llu writebacks (%llu fill shifts, "
        "%.1f ns backing)\n"
        "  device: %llu shifts = %llu service + %llu migration + %llu fill, "
        "%.1f ns\n",
        s, seq.num_variables(), capacity,
        static_cast<unsigned long long>(c.accesses), 100.0 * hit_rate,
        static_cast<unsigned long long>(c.misses),
        static_cast<unsigned long long>(c.fills),
        static_cast<unsigned long long>(c.writebacks),
        static_cast<unsigned long long>(c.fill_shifts), c.backing_ns,
        static_cast<unsigned long long>(result.online.stats.shifts),
        static_cast<unsigned long long>(result.online.service_shifts),
        static_cast<unsigned long long>(result.online.migration_shifts),
        static_cast<unsigned long long>(c.fill_shifts),
        result.online.stats.makespan_ns + c.backing_ns);
    totals.accesses += c.accesses;
    totals.hits += c.hits;
    totals.misses += c.misses;
    totals.fills += c.fills;
    totals.writebacks += c.writebacks;
    totals.fill_shifts += c.fill_shifts;
    totals.backing_ns += c.backing_ns;
    total_shifts += result.online.stats.shifts;
  }
  std::printf(
      "\ntotal: %llu shifts, %llu/%llu hits, %llu fills, %llu writebacks, "
      "%.1f ns backing-store time\n",
      static_cast<unsigned long long>(total_shifts),
      static_cast<unsigned long long>(totals.hits),
      static_cast<unsigned long long>(totals.accesses),
      static_cast<unsigned long long>(totals.fills),
      static_cast<unsigned long long>(totals.writebacks), totals.backing_ns);
  return obs.Write();
}

/// Parses a `<dbcs>` argument: the whole text must be a decimal integer
/// in [1, UINT_MAX]. Throws std::invalid_argument otherwise ("4x", "4.9",
/// "-1" and out-of-range counts included), which main reports as exit 1.
unsigned ParseDbcCount(std::string_view text) {
  unsigned dbcs = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, dbcs);
  if (ec != std::errc() || ptr != end || dbcs == 0) {
    throw std::invalid_argument("DBC count '" + std::string(text) +
                                "' is not a positive integer");
  }
  return dbcs;
}

/// Parses trailing `[--json <file>]` (and, when `trace_path` is
/// non-null, `[--trace-out <file>]`); returns false (after printing the
/// offender) on anything else.
bool ParseOutputFlags(int argc, char** argv, int first, std::string* json_path,
                      std::string* trace_path = nullptr) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      *json_path = argv[++i];
    } else if (trace_path != nullptr && arg == "--trace-out" &&
               i + 1 < argc) {
      *trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::string(argv[1]) == "suite") {
      return CmdSuite(argv[2]);
    }
    if (argc >= 4 && std::string(argv[1]) == "export") {
      return CmdExport(argv[2], argv[3]);
    }
    if (argc >= 5 && std::string(argv[1]) == "place") {
      return CmdPlace(argv[2], argv[3], ParseDbcCount(argv[4]));
    }
    if (argc >= 4 && std::string(argv[1]) == "compare") {
      std::string json_path;
      if (!ParseOutputFlags(argc, argv, 4, &json_path)) return Usage();
      return CmdCompare(argv[2], ParseDbcCount(argv[3]), json_path);
    }
    if (argc >= 5 && std::string(argv[1]) == "online") {
      ExplorerObs obs;
      if (!ParseOutputFlags(argc, argv, 5, &obs.json_path, &obs.trace_path)) {
        return Usage();
      }
      return CmdOnline(argv[2], argv[3], ParseDbcCount(argv[4]), obs);
    }
    if (argc >= 5 && std::string(argv[1]) == "serve") {
      ExplorerObs obs;
      if (!ParseOutputFlags(argc, argv, 5, &obs.json_path, &obs.trace_path)) {
        return Usage();
      }
      return CmdServe(argv[2], argv[3], ParseDbcCount(argv[4]), obs);
    }
    if (argc >= 5 && std::string(argv[1]) == "cache") {
      ExplorerObs obs;
      if (!ParseOutputFlags(argc, argv, 5, &obs.json_path, &obs.trace_path)) {
        return Usage();
      }
      return CmdCache(argv[2], argv[3], ParseDbcCount(argv[4]), obs);
    }
    if (argc >= 2 && std::string(argv[1]) == "strategies") {
      std::string json_path;
      if (!ParseOutputFlags(argc, argv, 2, &json_path)) return Usage();
      return CmdStrategies(json_path);
    }
    if (argc >= 2 && std::string(argv[1]) == "workloads") {
      std::string json_path;
      if (!ParseOutputFlags(argc, argv, 2, &json_path)) return Usage();
      return CmdWorkloads(json_path);
    }
    if (argc == 1) {
      // Demo: inspect one benchmark so running without arguments shows
      // something useful, then print usage.
      std::printf("demo: suite dct\n");
      (void)CmdSuite("dct");
      std::printf("\n");
      (void)Usage();
      return 0;  // demo mode is a success
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return Usage();
}
