// Multi-tenant placement service: several tenants' access streams served
// concurrently on ONE device.
//
// The device's DBCs are partitioned into `num_shards` equal shards, each
// driven by its own online::OnlineEngine (private DBC state, private
// placement, private phase detector). What stays shared is exactly what
// hardware shares:
//
//  * the read/write channel — every shard controller books occupancy on
//    one rtm::SharedChannel, so one tenant's traffic delays another's;
//  * the migration budget — a global MigrationBudget meters re-placement
//    shifts across ALL shards (per-window refill with a burst allowance
//    of kBurstWindows windows), plugged into each engine's
//    migration_gate;
//  * the arbiter — a deterministic round-robin ChannelArbiter decides
//    which tenant's next window batch is issued, one engine window per
//    turn and one turn per shard before it moves on.
//
// Tenants are assigned to shards round-robin in admission order (the
// i-th admitted tenant goes to shard i mod num_shards). Per-tenant
// accounting (TenantStats) attributes every window's accesses, shifts,
// exposed latency, energy and budget denials to the tenant whose turn
// produced them; the per-tenant sums reproduce the device totals exactly
// on integer counters (and to rounding on energy).
//
// Oracle property (pinned by tests/serve_service_test.cpp): one tenant on
// one shard with an unlimited budget is bit-identical to a bare
// OnlineEngine run of the same configuration — same placement decisions,
// same shift counts, same makespan.
//
// Hybrid-memory mode (ServeCacheConfig): each shard's engine can be a
// cache::CacheEngine instead — the shard device holds a bounded resident
// set and misses fill from the modeled backing store. Tenants of one
// shard share its resident set: a miss may evict any tenant's frame.
// Per-tenant CacheStats are attributed turn-by-turn exactly like shifts.
// Cache oracle (also pinned by tests/serve_service_test.cpp): cache mode
// at capacity_ratio 1.0 is bit-identical to the plain service on every
// counter.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/engine.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "online/engine.h"
#include "rtm/config.h"
#include "rtm/controller.h"
#include "rtm/energy_model.h"
#include "trace/access_sequence.h"

namespace rtmp::serve {

/// Unused migration allowance accumulates up to shifts_per_window *
/// kBurstWindows, so a quiet stretch can bankroll one large re-placement
/// without unmetering steady-state traffic.
inline constexpr std::uint64_t kBurstWindows = 4;

/// Global re-placement allowance shared by every shard.
struct MigrationBudgetConfig {
  /// Migration shifts granted per served window; 0 = unlimited.
  std::uint64_t shifts_per_window = 0;
};

/// Token-bucket meter over migration shifts (see MigrationBudgetConfig).
/// The service calls RefillForWindow() once per arbitration turn and
/// plugs TryConsume into every shard engine's migration_gate; turns are
/// serialized by the arbiter, so no locking is needed.
class MigrationBudget {
 public:
  explicit MigrationBudget(MigrationBudgetConfig config) : config_(config) {}

  [[nodiscard]] bool unlimited() const noexcept {
    return config_.shifts_per_window == 0;
  }

  /// Accrues one window's allowance (capped at the burst ceiling). The
  /// ceiling, the balance and granted() saturate at UINT64_MAX.
  void RefillForWindow() noexcept;

  /// Admits a migration estimated at `shifts` if covered; consumes on
  /// admission. Unlimited budgets admit everything (and still track
  /// spending).
  [[nodiscard]] bool TryConsume(std::uint64_t shifts) noexcept;

  /// Allowance accrued / migration shifts admitted so far, both
  /// saturating. For a limited budget spent() <= granted() is an invariant.
  [[nodiscard]] std::uint64_t granted() const noexcept { return granted_; }
  [[nodiscard]] std::uint64_t spent() const noexcept { return spent_; }
  [[nodiscard]] std::uint64_t balance() const noexcept { return balance_; }

 private:
  MigrationBudgetConfig config_;
  std::uint64_t balance_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t spent_ = 0;
};

/// Deterministic round-robin interleaving of per-shard tenant queues on
/// the shared channel. One turn = one engine window of one tenant. Each
/// shard serves one turn (round-robin over its active tenants) before
/// the arbiter moves on to the next shard; exhausted tenants are retired
/// and skipped.
class ChannelArbiter {
 public:
  /// Sentinel session index for "every tenant is retired".
  static constexpr std::size_t kDone = static_cast<std::size_t>(-1);

  /// `tenants_per_shard[s]` lists the session indices assigned to shard
  /// s in admission order.
  explicit ChannelArbiter(
      std::vector<std::vector<std::size_t>> tenants_per_shard);

  /// The session index whose window batch goes next; kDone when every
  /// tenant has been retired. Advances the arbiter state.
  [[nodiscard]] std::size_t NextTurn();

  /// Removes a finished session from its shard's queue.
  void Retire(std::size_t shard, std::size_t session);

 private:
  struct ShardQueue {
    std::vector<std::size_t> tenants;
    std::size_t cursor = 0;  ///< next tenant within the shard
  };

  std::vector<ShardQueue> shards_;
  std::size_t shard_cursor_ = 0;  ///< shard whose turn is next
};

/// Cache-tier settings of the service (see header comment). With
/// `enabled`, every shard runs a cache::CacheEngine whose capacity is
/// ResolveCapacity(capacity_ratio) of the shard's variable population,
/// and the shard device is sized for that CAPACITY (capacity_ratio 1.0
/// reproduces the plain service's devices exactly).
struct ServeCacheConfig {
  bool enabled = false;
  /// Eviction policy registry name (cache/eviction.h).
  std::string eviction = "cache-lru";
  /// Shard resident-set size as a fraction of the shard's variables.
  double capacity_ratio = 1.0;
  /// Base seed for randomized eviction policies; shard s uses
  /// online::WindowSeed(eviction_seed, s) so shards draw independent
  /// streams deterministically.
  std::uint64_t eviction_seed = 0;
};

struct ServeConfig {
  /// Equal DBC partitions of the device; must divide total_dbcs().
  unsigned num_shards = 1;
  MigrationBudgetConfig budget{};
  /// Per-shard engine recipe. The service sets
  /// controller.shared_channel (all shards share one channel) and
  /// migration_gate (the global budget; the recipe must leave it unset),
  /// and derives per-shard search seeds with online::WindowSeed(base,
  /// shard) — shard 0 keeps the base seeds verbatim, preserving the
  /// single-shard oracle.
  online::OnlineConfig engine{};
  /// Hybrid-memory mode; disabled by default (plain shard engines).
  ServeCacheConfig cache{};
  /// Observability sinks (obs/obs.h), forwarded into every shard engine
  /// with tid = shard index; the service adds per-turn spans with tenant
  /// attribution and budget-denial instants, and Run() publishes
  /// serve/turns and serve/budget_denials from the tenant stats.
  /// Default = disabled. The per-tenant latency histograms below are
  /// ALWAYS on — one integer Record per turn — so quantiles are
  /// available without wiring.
  obs::ObsConfig obs{};
};

/// Everything attributed to one tenant across its turns.
struct TenantStats {
  std::string name;
  std::size_t shard = 0;
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;   ///< service reads fed by this tenant
  std::uint64_t writes = 0;  ///< service writes fed by this tenant
  /// Controller requests issued during this tenant's turns (service plus
  /// migration traffic its windows triggered, plus cache fill sweeps in
  /// hybrid-memory mode).
  std::uint64_t device_requests = 0;
  std::uint64_t service_shifts = 0;
  std::uint64_t migration_shifts = 0;
  std::size_t migrations = 0;
  std::size_t migrated_vars = 0;
  /// Re-placements the shared budget denied during this tenant's turns.
  std::size_t budget_denials = 0;
  std::size_t windows = 0;
  std::uint64_t placement_cost = 0;
  /// Sum of WindowRecord::latency_ns over the tenant's windows: the
  /// makespan its turns added, including waits behind other tenants on
  /// the shared channel.
  double exposed_latency_ns = 0.0;
  /// Per-window exposed latencies (fairness is scored on their mean).
  std::vector<double> window_latencies;
  /// Exposed-latency distribution (log2 buckets over rounded
  /// latency_ns). Tenant histograms Merge to ServeResult::latency_hist
  /// EXACTLY — the attribution invariant extended to distributions;
  /// read p50/p99 via Quantile().
  obs::Histogram latency_hist{};
  /// Energy delta across the tenant's turns (leakage follows makespan
  /// advance, so shared-channel waits are charged to the waiting tenant).
  rtm::EnergyBreakdown energy{};
  /// Cache-tier counters across the tenant's turns (zeros when the
  /// cache tier is disabled). A miss is charged to the tenant whose
  /// turn triggered it, even when it evicted another tenant's frame.
  cache::CacheStats cache{};

  [[nodiscard]] double mean_window_latency_ns() const noexcept {
    if (windows == 0) return 0.0;
    return exposed_latency_ns / static_cast<double>(windows);
  }
};

/// One shard's engine run plus its DBC slice.
struct ShardStats {
  std::size_t index = 0;
  unsigned first_dbc = 0;
  unsigned num_dbcs = 0;
  std::vector<std::string> tenants;  ///< names, admission order
  online::OnlineResult result;
  /// Cache-tier counters of this shard's engine (zeros when disabled).
  cache::CacheStats cache{};
};

/// The service's aggregate view of one Run().
struct ServeResult {
  std::vector<TenantStats> tenants;  ///< admission order
  std::vector<ShardStats> shards;
  std::uint64_t service_shifts = 0;
  std::uint64_t migration_shifts = 0;
  /// service + migration + cache fill — the device total; per-tenant
  /// service and migration shifts plus cache.fill_shifts sum to it
  /// exactly.
  std::uint64_t total_shifts = 0;
  /// Cache-tier totals over all shards (zeros when disabled); the
  /// per-tenant CacheStats sum to it exactly.
  cache::CacheStats cache{};
  std::uint64_t reads = 0;   ///< incl. migration reads
  std::uint64_t writes = 0;  ///< incl. migration writes
  std::size_t migrations = 0;
  std::size_t migrated_vars = 0;
  std::size_t budget_denials = 0;
  std::uint64_t budget_granted = 0;
  std::uint64_t budget_spent = 0;
  /// Finish time of the latest shard (shards share one timeline through
  /// the channel, so this is the service makespan).
  double makespan_ns = 0.0;
  rtm::EnergyBreakdown energy{};
  /// Device-level exposed-latency distribution, recorded per turn by
  /// the service itself (not derived from the tenant histograms — their
  /// exact-Merge equality to this one is a tested invariant).
  obs::Histogram latency_hist{};
  /// Jain fairness index over the mean per-window exposed latency of
  /// every tenant that served at least one window.
  double fairness = 1.0;
  std::uint64_t placement_cost = 0;
  double placement_wall_ms = 0.0;
  std::size_t evaluations = 0;
};

/// One service run: admit tenants with OpenSession(), then Run() once.
///
/// Sequences are borrowed — they must outlive Run(). Tenant variable
/// names are prefixed "<tenant>/" inside the shard engines, so tenants
/// may reuse names freely without sharing placement slots.
class PlacementService {
 public:
  /// Validates the configuration: num_shards must be >= 1 and divide the
  /// device's DBC count, and engine.migration_gate must be unset (the
  /// service owns it; the engine recipe validates itself when the shards
  /// are built). Throws std::invalid_argument.
  PlacementService(ServeConfig config, rtm::RtmConfig device);

  /// Admits a tenant and assigns its shard round-robin (session i goes
  /// to shard i mod num_shards). Returns the session index (admission
  /// order). Throws std::invalid_argument on an empty or duplicate name,
  /// std::logic_error after Run().
  std::size_t OpenSession(std::string tenant_name,
                          const trace::AccessSequence& sequence);

  /// Serves every admitted tenant to completion and returns the
  /// aggregate result (publishing serve/* counters into
  /// config.obs.metrics). One-shot: throws std::logic_error on reuse.
  [[nodiscard]] ServeResult Run();

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_sessions() const noexcept {
    return sessions_.size();
  }

 private:
  struct Session {
    std::string name;
    const trace::AccessSequence* sequence = nullptr;
    std::size_t shard = 0;
    /// First engine variable id of this tenant's (prefixed) space.
    trace::VariableId base_id = 0;
    std::size_t cursor = 0;  ///< next un-fed access
    /// Interned tenant name for turn-span attribution (trace enabled).
    std::uint32_t trace_name = 0;
  };

  /// One shard's engine: the bare adaptive engine, or — in hybrid-memory
  /// mode — the cache tier wrapped around one. Exactly one member is
  /// set; the forwarders give ServeTurn a single shape for both.
  struct ShardEngine {
    std::unique_ptr<online::OnlineEngine> online;
    std::unique_ptr<cache::CacheEngine> cache;

    std::uint32_t RegisterVariable(std::string_view name);
    [[nodiscard]] std::size_t variables_seen() const noexcept;
    void Feed(std::span<const trace::Access> block, std::uint32_t base_id);
    void FlushWindow();
    [[nodiscard]] const std::vector<online::WindowRecord>& Windows()
        const noexcept;
    [[nodiscard]] const rtm::ControllerStats& DeviceStats() const noexcept;
    [[nodiscard]] rtm::EnergyBreakdown DeviceEnergy() const;
    /// Live cache counters; all-zero in plain mode.
    [[nodiscard]] cache::CacheStats CacheStatsNow() const;
  };

  /// Feeds one window batch of `session` and attributes the outcome.
  void ServeTurn(Session& session, ShardEngine& engine, TenantStats& stats);

  ServeConfig config_;
  rtm::RtmConfig device_;
  MigrationBudget budget_;
  rtm::SharedChannel channel_;
  std::vector<Session> sessions_;
  bool finished_ = false;
  /// Device-level latency histogram, fed once per turn (always on).
  obs::Histogram latency_hist_{};
};

}  // namespace rtmp::serve
