#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace_recorder.h"
#include "util/stats.h"

namespace rtmp::serve {

namespace {

/// One shard's slice of the device: an equal DBC partition with the same
/// track geometry and circuit parameters. The DBC depth widens when the
/// shard's variable population outgrows its slice, mirroring
/// sim::CellConfig's oversized-sequence rule; a 1-shard partition of a
/// paper device is the device itself, which is what makes the
/// single-shard service bit-identical to a bare engine.
rtm::RtmConfig ShardDeviceConfig(const rtm::RtmConfig& device,
                                 unsigned num_shards,
                                 std::size_t shard_vars) {
  rtm::RtmConfig shard = device;
  shard.dbcs = device.total_dbcs() / num_shards;
  if (shard_vars > shard.word_capacity()) {
    const std::uint64_t per_dbc = (shard_vars + shard.dbcs - 1) / shard.dbcs;
    shard.domains_per_dbc = static_cast<unsigned>(per_dbc);
  }
  shard.Validate();
  return shard;
}

constexpr std::uint64_t kMaxShifts = std::numeric_limits<std::uint64_t>::max();

/// a + b, pinned at kMaxShifts instead of wrapping.
std::uint64_t SaturatingAdd(std::uint64_t a, std::uint64_t b) noexcept {
  return std::min(a, kMaxShifts - b) + b;
}

/// Counter-wise into += a - b; with `b` the counters at a turn's start,
/// that adds the turn's cache-tier delta.
void AddCacheStats(cache::CacheStats& into, const cache::CacheStats& a,
                   const cache::CacheStats& b = {}) {
  into.accesses += a.accesses - b.accesses;
  into.hits += a.hits - b.hits;
  into.misses += a.misses - b.misses;
  into.fills += a.fills - b.fills;
  into.writebacks += a.writebacks - b.writebacks;
  into.fill_shifts += a.fill_shifts - b.fill_shifts;
  into.fill_accesses += a.fill_accesses - b.fill_accesses;
  into.backing_ns += a.backing_ns - b.backing_ns;
  into.backing_pj += a.backing_pj - b.backing_pj;
}

}  // namespace

std::uint32_t PlacementService::ShardEngine::RegisterVariable(
    std::string_view name) {
  if (cache != nullptr) return cache->RegisterVariable(name);
  return online->RegisterVariable(name);
}

std::size_t PlacementService::ShardEngine::variables_seen() const noexcept {
  return cache != nullptr ? cache->variables_seen() : online->variables_seen();
}

void PlacementService::ShardEngine::Feed(std::span<const trace::Access> block,
                                         std::uint32_t base_id) {
  if (cache != nullptr) {
    cache->Feed(block, base_id);
  } else {
    online->Feed(block, base_id);
  }
}

void PlacementService::ShardEngine::FlushWindow() {
  if (cache != nullptr) {
    cache->FlushWindow();
  } else {
    online->FlushWindow();
  }
}

const std::vector<online::WindowRecord>&
PlacementService::ShardEngine::Windows() const noexcept {
  return cache != nullptr ? cache->Windows() : online->Windows();
}

const rtm::ControllerStats& PlacementService::ShardEngine::DeviceStats()
    const noexcept {
  return cache != nullptr ? cache->DeviceStats() : online->DeviceStats();
}

rtm::EnergyBreakdown PlacementService::ShardEngine::DeviceEnergy() const {
  return cache != nullptr ? cache->DeviceEnergy() : online->DeviceEnergy();
}

cache::CacheStats PlacementService::ShardEngine::CacheStatsNow() const {
  return cache != nullptr ? cache->stats() : cache::CacheStats{};
}

void MigrationBudget::RefillForWindow() noexcept {
  if (unlimited()) return;
  const std::uint64_t allowance = config_.shifts_per_window;
  granted_ = SaturatingAdd(granted_, allowance);
  const std::uint64_t ceiling = allowance > kMaxShifts / kBurstWindows
                                    ? kMaxShifts
                                    : allowance * kBurstWindows;
  balance_ = std::min(SaturatingAdd(balance_, allowance), ceiling);
}

bool MigrationBudget::TryConsume(std::uint64_t shifts) noexcept {
  if (!unlimited()) {
    if (shifts > balance_) return false;
    balance_ -= shifts;
  }
  spent_ = SaturatingAdd(spent_, shifts);
  return true;
}

ChannelArbiter::ChannelArbiter(
    std::vector<std::vector<std::size_t>> tenants_per_shard) {
  shards_.reserve(tenants_per_shard.size());
  for (std::vector<std::size_t>& tenants : tenants_per_shard) {
    shards_.push_back(ShardQueue{std::move(tenants), 0});
  }
}

std::size_t ChannelArbiter::NextTurn() {
  if (shards_.empty()) return kDone;
  for (std::size_t probed = 0; probed < shards_.size(); ++probed) {
    ShardQueue& queue = shards_[shard_cursor_];
    shard_cursor_ = (shard_cursor_ + 1) % shards_.size();
    if (queue.tenants.empty()) continue;
    const std::size_t session = queue.tenants[queue.cursor];
    queue.cursor = (queue.cursor + 1) % queue.tenants.size();
    return session;
  }
  return kDone;
}

void ChannelArbiter::Retire(std::size_t shard, std::size_t session) {
  ShardQueue& queue = shards_.at(shard);
  const auto it =
      std::find(queue.tenants.begin(), queue.tenants.end(), session);
  if (it == queue.tenants.end()) return;
  const std::size_t index =
      static_cast<std::size_t>(it - queue.tenants.begin());
  queue.tenants.erase(it);
  if (index < queue.cursor) --queue.cursor;
  if (queue.cursor >= queue.tenants.size()) queue.cursor = 0;
}

PlacementService::PlacementService(ServeConfig config, rtm::RtmConfig device)
    : config_(std::move(config)),
      device_(std::move(device)),
      budget_(config_.budget) {
  if (config_.num_shards == 0) {
    throw std::invalid_argument("PlacementService: num_shards must be >= 1");
  }
  if (device_.total_dbcs() % config_.num_shards != 0) {
    throw std::invalid_argument(
        "PlacementService: num_shards must divide the device's DBC count");
  }
  if (config_.engine.migration_gate) {
    throw std::invalid_argument(
        "PlacementService: engine.migration_gate is set by the service");
  }
}

std::size_t PlacementService::OpenSession(
    std::string tenant_name, const trace::AccessSequence& sequence) {
  if (finished_) {
    throw std::logic_error("PlacementService: service already ran");
  }
  if (tenant_name.empty()) {
    throw std::invalid_argument("PlacementService: empty tenant name");
  }
  for (const Session& session : sessions_) {
    if (session.name == tenant_name) {
      throw std::invalid_argument("PlacementService: duplicate tenant '" +
                                  tenant_name + "'");
    }
  }
  Session session;
  session.shard = sessions_.size() % config_.num_shards;
  session.name = std::move(tenant_name);
  session.sequence = &sequence;
  sessions_.push_back(std::move(session));
  return sessions_.size() - 1;
}

void PlacementService::ServeTurn(Session& session, ShardEngine& engine,
                                 TenantStats& stats) {
  budget_.RefillForWindow();
  const trace::AccessSequence& seq = *session.sequence;
  const std::size_t remaining = seq.size() - session.cursor;
  const std::size_t quantum =
      config_.engine.window_accesses == online::kWholeTraceWindow
          ? remaining
          : std::min(config_.engine.window_accesses, remaining);

  const std::uint64_t requests_before = engine.DeviceStats().requests;
  const rtm::EnergyBreakdown energy_before = engine.DeviceEnergy();
  const cache::CacheStats cache_before = engine.CacheStatsNow();
  const double makespan_before = engine.DeviceStats().makespan_ns;

  // The whole quantum goes down as one batched span — one engine call
  // per turn, remapped into the tenant's shard-local id space.
  const std::span<const trace::Access> block(
      seq.accesses().data() + session.cursor, quantum);
  engine.Feed(block, session.base_id);
  std::uint64_t writes = 0;
  for (const trace::Access& access : block) {
    writes += access.type == trace::AccessType::kWrite;
  }
  stats.writes += writes;
  stats.reads += quantum - writes;
  session.cursor += quantum;
  // Close the turn at a window boundary: engine windows map 1:1 onto
  // (tenant, turn) batches, so the latest record is this turn's.
  engine.FlushWindow();

  const online::WindowRecord& record = engine.Windows().back();
  stats.accesses += quantum;
  stats.device_requests += engine.DeviceStats().requests - requests_before;
  stats.service_shifts += record.service_shifts;
  stats.migration_shifts += record.migration_shifts;
  if (record.replaced) ++stats.migrations;
  stats.migrated_vars += record.migrated_vars;
  if (record.budget_denied) ++stats.budget_denials;
  ++stats.windows;
  stats.placement_cost += record.window_cost;
  stats.exposed_latency_ns += record.latency_ns;
  // Always-on latency distribution: the tenant's and the service's own
  // device-level histogram see the same rounded sample, which is what
  // makes the tenant-merge == device equality exact.
  const std::uint64_t latency_sample =
      static_cast<std::uint64_t>(std::llround(record.latency_ns));
  stats.latency_hist.Record(latency_sample);
  latency_hist_.Record(latency_sample);

  if (obs::TraceRecorder* trace = config_.obs.trace) {
    const std::uint32_t pid = config_.obs.pid;
    const auto tid = static_cast<std::uint32_t>(session.shard);
    const double makespan_after = engine.DeviceStats().makespan_ns;
    const obs::TraceRecorder::Arg args[] = {
        {"tenant", true, session.trace_name},
        {"accesses", false, quantum},
        {"shifts", false, record.service_shifts},
    };
    trace->Complete("turn", pid, tid, makespan_before,
                    makespan_after - makespan_before, args);
    if (record.budget_denied) {
      const obs::TraceRecorder::Arg denied[] = {args[0]};
      trace->Instant("budget-denied", pid, tid, makespan_after, denied);
    }
  }

  const rtm::EnergyBreakdown energy_after = engine.DeviceEnergy();
  stats.energy.leakage_pj += energy_after.leakage_pj - energy_before.leakage_pj;
  stats.energy.read_write_pj +=
      energy_after.read_write_pj - energy_before.read_write_pj;
  stats.energy.shift_pj += energy_after.shift_pj - energy_before.shift_pj;
  AddCacheStats(stats.cache, engine.CacheStatsNow(), cache_before);
}

ServeResult PlacementService::Run() {
  if (finished_) {
    throw std::logic_error("PlacementService: service already ran");
  }
  finished_ = true;

  const std::size_t shards = config_.num_shards;
  std::vector<std::vector<std::size_t>> members(shards);
  std::vector<std::size_t> shard_vars(shards, 0);
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    members[sessions_[i].shard].push_back(i);
    shard_vars[sessions_[i].shard] += sessions_[i].sequence->num_variables();
  }

  // One engine per shard. All controllers point at the one shared
  // channel; the global budget gates every engine's migrations (after a
  // caller-provided gate, which keeps its veto). In hybrid-memory mode
  // the engine is a cache tier wrapped around the same recipe, its
  // capacity resolved against the shard's variable population and its
  // device sized for the CAPACITY — at ratio 1.0 the same device the
  // plain service would build, which is what keeps the cache oracle
  // bit-identical.
  const bool cache_mode = config_.cache.enabled;
  const online::OnlineConfig& recipe = config_.engine;
  std::vector<ShardEngine> engines;
  engines.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    online::OnlineConfig engine_config = recipe;
    engine_config.controller.shared_channel = &channel_;
    // Shard engines inherit the service's sinks on their own trace row.
    engine_config.obs = config_.obs;
    engine_config.obs.tid = static_cast<std::uint32_t>(s);
    if (obs::TraceRecorder* trace = engine_config.obs.trace) {
      trace->SetThreadName(engine_config.obs.pid, engine_config.obs.tid,
                           "shard " + std::to_string(s));
    }
    engine_config.strategy_options.ga.seed =
        online::WindowSeed(recipe.strategy_options.ga.seed, s);
    engine_config.strategy_options.rw.seed =
        online::WindowSeed(recipe.strategy_options.rw.seed, s);
    engine_config.migration_gate = [this](std::uint64_t shifts) {
      return budget_.TryConsume(shifts);
    };
    ShardEngine engine;
    if (cache_mode) {
      cache::CacheConfig cc;
      cc.eviction = config_.cache.eviction;
      cc.capacity_ratio = config_.cache.capacity_ratio;
      cc.eviction_seed = online::WindowSeed(config_.cache.eviction_seed, s);
      cc.engine = std::move(engine_config);
      cc.capacity_slots = cache::ResolveCapacity(cc, shard_vars[s]);
      const std::size_t capacity = cc.capacity_slots;
      engine.cache = std::make_unique<cache::CacheEngine>(
          std::move(cc),
          ShardDeviceConfig(device_, config_.num_shards, capacity));
    } else {
      engine.online = std::make_unique<online::OnlineEngine>(
          std::move(engine_config),
          ShardDeviceConfig(device_, config_.num_shards, shard_vars[s]));
    }
    engines.push_back(std::move(engine));
  }

  // Pre-register every tenant's variable space shard-major in admission
  // order, names prefixed "<tenant>/": ids stay dense per shard, and a
  // single tenant's ids coincide with its sequence's (oracle property).
  ServeResult result;
  result.tenants.resize(sessions_.size());
  std::string name;
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::size_t i : members[s]) {
      Session& session = sessions_[i];
      const trace::AccessSequence& seq = *session.sequence;
      session.base_id =
          static_cast<trace::VariableId>(engines[s].variables_seen());
      for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
        name.assign(session.name).append("/").append(seq.name_of(v));
        (void)engines[s].RegisterVariable(name);
      }
      result.tenants[i].name = session.name;
      result.tenants[i].shard = s;
      if (config_.obs.trace != nullptr) {
        session.trace_name = config_.obs.trace->Intern(session.name);
      }
    }
  }

  // Arbiter over tenants with traffic; accessless tenants keep their
  // placement slots but never hold the channel.
  std::vector<std::vector<std::size_t>> active(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::size_t i : members[s]) {
      if (!sessions_[i].sequence->empty()) active[s].push_back(i);
    }
  }
  ChannelArbiter arbiter(std::move(active));

  for (std::size_t turn = arbiter.NextTurn(); turn != ChannelArbiter::kDone;
       turn = arbiter.NextTurn()) {
    Session& session = sessions_[turn];
    ServeTurn(session, engines[session.shard], result.tenants[turn]);
    if (session.cursor >= session.sequence->size()) {
      arbiter.Retire(session.shard, turn);
    }
  }

  const unsigned dbcs_per_shard =
      device_.total_dbcs() / config_.num_shards;
  result.shards.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ShardStats shard;
    shard.index = s;
    shard.first_dbc = static_cast<unsigned>(s) * dbcs_per_shard;
    shard.num_dbcs = dbcs_per_shard;
    for (const std::size_t i : members[s]) {
      shard.tenants.push_back(sessions_[i].name);
    }
    if (engines[s].cache != nullptr) {
      cache::CacheResult finished = engines[s].cache->Finish();
      shard.result = std::move(finished.online);
      shard.cache = finished.cache;
    } else {
      shard.result = engines[s].online->Finish();
    }

    const online::OnlineResult& r = shard.result;
    result.service_shifts += r.service_shifts;
    result.migration_shifts += r.migration_shifts;
    result.reads += r.reads;
    result.writes += r.writes;
    result.migrations += r.migrations;
    result.migrated_vars += r.migrated_vars;
    result.budget_denials += r.budget_denials;
    result.placement_cost += r.placement_cost;
    result.placement_wall_ms += r.placement_wall_ms;
    result.evaluations += r.evaluations;
    result.makespan_ns = std::max(result.makespan_ns, r.stats.makespan_ns);
    result.energy.leakage_pj += r.energy.leakage_pj;
    result.energy.read_write_pj += r.energy.read_write_pj;
    result.energy.shift_pj += r.energy.shift_pj;
    AddCacheStats(result.cache, shard.cache);
    result.shards.push_back(std::move(shard));
  }
  result.total_shifts = result.service_shifts + result.migration_shifts +
                        result.cache.fill_shifts;
  result.budget_granted = budget_.granted();
  result.budget_spent = budget_.spent();
  result.latency_hist = latency_hist_;
  if (obs::MetricsRegistry* metrics = config_.obs.metrics) {
    std::uint64_t& turns = metrics->Counter("serve/turns");
    std::uint64_t& denials = metrics->Counter("serve/budget_denials");
    for (const TenantStats& tenant : result.tenants) {
      turns += tenant.windows;
      denials += tenant.budget_denials;
    }
  }

  std::vector<double> mean_latencies;
  for (const TenantStats& tenant : result.tenants) {
    if (tenant.windows > 0) {
      mean_latencies.push_back(tenant.mean_window_latency_ns());
    }
  }
  result.fairness = util::JainFairness(mean_latencies);
  return result;
}

}  // namespace rtmp::serve
