// Hybrid-memory mode: the racetrack device as a managed cache tier.
//
// Everywhere else in this repository the device is large enough for the
// whole variable space. This engine drops that assumption: the device
// holds a bounded RESIDENT SET of `capacity_slots` frames, and the rest
// of the working set lives in a modeled backing store (backing_store.h).
// Logical variables map onto frames through a cache directory:
//
//  * A hit is an access to a resident variable — it flows into the
//    wrapped online::OnlineEngine unchanged (as an access to the
//    variable's frame) and costs exactly what it always cost.
//  * A miss picks a victim frame via a pluggable EvictionPolicy
//    (eviction.h), writes the victim back if dirty, fills the newcomer
//    from the backing store, and then serves the access from the frame.
//
// The device side of evictions and fills is planned as the same
// ascending-offset per-DBC sweeps a migration buffer would issue
// (online::AppendSweepRequests) and executed on the wrapped engine's
// live controller through its pre-serve hook — after the window's
// placement is final, before its service traffic. Everything therefore
// lands on ONE controller timeline and the totals decompose exactly:
//
//    online.stats.shifts == online.service_shifts
//                         + online.migration_shifts
//                         + cache.fill_shifts
//
// (pinned by tests/cache_property_test.cpp). The backing store's own
// latency and energy are accounted in CacheStats, not on the device
// timeline.
//
// Oracle property (pinned by tests/cache_engine_test.cpp): with
// capacity >= the variable count, every variable is admitted at
// registration, the directory is the identity map, no miss ever occurs,
// and the run is bit-identical to the bare OnlineEngine on every
// counter — the cache tier costs nothing when it does nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cache/backing_store.h"
#include "cache/eviction.h"
#include "online/engine.h"
#include "rtm/config.h"

namespace rtmp::cache {

struct CacheConfig {
  /// Eviction policy registry name (see cache/eviction.h).
  std::string eviction = "cache-lru";
  /// Resident-set size as a fraction of the variable count; used by
  /// ResolveCapacity when capacity_slots is 0. 1.0 = whole working set
  /// resident (the oracle configuration).
  double capacity_ratio = 1.0;
  /// Explicit resident-set size in frames; 0 = derive from
  /// capacity_ratio. The engine constructor requires the RESOLVED value
  /// (> 0) — callers with a known variable count use ResolveCapacity.
  std::size_t capacity_slots = 0;
  /// The wrapped adaptive engine (window size, detector, re-seed
  /// strategy, controller mode, ...). The cache engine batches its
  /// misses per wrapped-engine window, so `engine.window_accesses` is
  /// also the miss-resolution granularity.
  online::OnlineConfig engine{};
  /// Seed for randomized eviction policies (cache-sample).
  std::uint64_t eviction_seed = 0;
  /// Record a CacheEvent per access (differential tests; off in
  /// experiment runs — the stream is O(accesses)).
  bool record_events = false;
};

/// config.capacity_slots if explicit, else ceil(capacity_ratio *
/// num_variables), at least 1. Throws std::invalid_argument when the
/// ratio is outside (0, 1] (a cache larger than the working set is
/// over-provisioning, not a configuration) while it is being relied on.
[[nodiscard]] std::size_t ResolveCapacity(const CacheConfig& config,
                                          std::size_t num_variables);

/// Cache-tier counters. Device-side fill traffic (fill_shifts,
/// fill_accesses) is measured on the wrapped controller; backing_ns /
/// backing_pj are the far side of the same transfers (see
/// backing_store.h).
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t writebacks = 0;
  /// Device shifts spent on eviction/fill sweeps (excluded from the
  /// wrapped engine's service_shifts and migration_shifts).
  std::uint64_t fill_shifts = 0;
  /// Device requests issued by those sweeps (one read per writeback,
  /// one write per fill).
  std::uint64_t fill_accesses = 0;
  /// Backing-store transfer time; serial penalty on top of the device
  /// makespan.
  double backing_ns = 0.0;
  /// Backing-store transfer energy.
  double backing_pj = 0.0;
};

/// One classified access, for event-stream differential tests.
struct CacheEvent {
  enum class Kind : std::uint8_t { kHit, kMiss };
  /// 1-based engine tick of the access.
  std::uint64_t tick = 0;
  /// Logical variable accessed.
  std::uint32_t variable = 0;
  /// Frame that served the access (the victim's frame on a miss).
  std::uint32_t frame = 0;
  Kind kind = Kind::kHit;
  /// Logical variable evicted to make room; kNoFrame on a hit.
  std::uint32_t evicted = kNoFrame;
  /// The eviction wrote the victim back (it was dirty).
  bool wrote_back = false;

  friend bool operator==(const CacheEvent&, const CacheEvent&) = default;
};

struct CacheResult {
  CacheStats cache{};
  online::OnlineResult online{};
  /// Populated only under CacheConfig::record_events.
  std::vector<CacheEvent> events;
};

/// One streaming cache session: register variables, feed accesses,
/// Finish(). Mirrors online::OnlineEngine's session shape; holds the
/// directory, the wrapped engine and at most one partial logical window
/// — never the whole trace.
class CacheEngine {
 public:
  /// Requires a RESOLVED capacity (config.capacity_slots > 0; see
  /// ResolveCapacity) and a registered eviction policy; throws
  /// std::invalid_argument otherwise. The wrapped engine's variable
  /// space is the frame pool, registered at the first window in id
  /// order — each frame under its then-occupant's logical name (see
  /// RegisterFramePool) — so frame ids and wrapped-engine variable ids
  /// coincide.
  CacheEngine(CacheConfig config, rtm::RtmConfig device);

  CacheEngine(const CacheEngine&) = delete;
  CacheEngine& operator=(const CacheEngine&) = delete;

  /// Registers a logical variable (idempotent per name; returns its id).
  /// The first `capacity()` registered variables are admitted to frames
  /// immediately and for free — the initial resident set, mirroring the
  /// uncached mode's "everything starts on-device" assumption. Throws
  /// std::logic_error after Finish().
  std::uint32_t RegisterVariable(std::string_view name);

  /// Appends a block of accesses to registered ids; every full logical
  /// window the block completes is resolved (classified, evicted/filled,
  /// handed to the wrapped engine) before the call returns, straight from
  /// the block unless it was cut across calls. How a stream is cut into
  /// blocks changes nothing. `id_offset` is added to every
  /// access's variable id — how the serve layer remaps tenant-local ids
  /// into the shard's space (mirrors online::OnlineEngine::Feed's offset
  /// parameter). A shifted id that is unregistered, or that overflows 32
  /// bits, throws std::out_of_range before any access of the block is
  /// fed; any call after Finish() throws std::logic_error, an empty block
  /// included.
  void Feed(std::span<const trace::Access> accesses,
            std::uint32_t id_offset = 0);

  /// Forces a window boundary now: the buffered partial window is
  /// resolved and handed to the wrapped engine, which also flushes. The
  /// serve layer closes every arbitration turn with this. No-op on an
  /// empty buffer. Throws std::logic_error after Finish().
  void FlushWindow();

  /// Flushes the trailing partial window and returns the combined
  /// result, publishing the cache/* counters (and, through the wrapped
  /// engine, online/*) into config.engine.obs.metrics. The engine cannot
  /// be fed afterwards.
  [[nodiscard]] CacheResult Finish();

  /// Cache counters so far (backing-store terms folded in live).
  [[nodiscard]] CacheStats stats() const;

  /// Resident-set size in frames.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return frames_.size();
  }

  /// Frames currently holding a variable — always <= capacity(), and
  /// equal to min(variables_seen(), capacity()) once any access flowed.
  [[nodiscard]] std::size_t resident() const noexcept;

  /// Logical variables registered so far.
  [[nodiscard]] std::size_t variables_seen() const noexcept {
    return frame_of_.size();
  }

  /// Wrapped-engine window records (one per resolved window).
  [[nodiscard]] const std::vector<online::WindowRecord>& Windows()
      const noexcept {
    return engine_.Windows();
  }

  /// Live controller view (service + migration + fill traffic).
  [[nodiscard]] const rtm::ControllerStats& DeviceStats() const noexcept {
    return engine_.DeviceStats();
  }

  [[nodiscard]] rtm::EnergyBreakdown DeviceEnergy() const {
    return engine_.DeviceEnergy();
  }

 private:
  /// One-shot registration of the frame pool in the wrapped engine,
  /// deferred to the first window so every frame can carry its
  /// occupant's logical name — the reseed strategies tie-break on
  /// names, and matching them is what keeps the full-capacity oracle
  /// bit-identical to a bare engine.
  void RegisterFramePool();
  /// Classifies one logical window (ids shifted by `id_offset`), resolves
  /// its misses and hands the frame-mapped block to the wrapped engine.
  /// Clears `window_`: empty, or `accesses` itself.
  void ResolveWindow(std::span<const trace::Access> accesses,
                     std::uint32_t id_offset);
  /// ResolveWindow's pass: hits, misses and the frame-mapped block, with
  /// `slots` from the previous window's placement (none before it).
  void ResolveAccesses(std::span<const trace::Access> accesses,
                       std::uint32_t id_offset,
                       std::span<const core::Slot> slots);
  /// Handles one miss of `variable`; returns the frame it was filled
  /// into.
  std::uint32_t ResolveMiss(std::uint32_t variable, trace::AccessType type);
  /// Name of registered variable `id`, viewed in `names_`.
  [[nodiscard]] std::string_view NameOf(std::uint32_t id) const {
    return std::string_view(names_).substr(
        name_starts_[id], name_starts_[id + 1] - name_starts_[id]);
  }
  /// `name`'s entry in `id_slots_`, or the empty entry where it belongs.
  std::uint32_t& SlotOf(std::string_view name);
  /// Recency list upkeep: links `frame` right after `after` (at the head
  /// for kNoFrame) / unlinks it / moves a just-used frame to the tail.
  void LinkAfter(std::uint32_t frame, std::uint32_t after);
  void Unlink(std::uint32_t frame);
  void Touch(std::uint32_t frame);
  /// Pre-serve hook body: executes the pending eviction/fill sweeps on
  /// the wrapped controller under the window's final placement.
  void ExecutePendingFills(const core::Placement& placement,
                           rtm::RtmController& controller);

  CacheConfig config_;
  online::OnlineEngine engine_;
  std::unique_ptr<EvictionPolicy> policy_;

  // Logical variable table, each name stored once: names back to back in
  // registration order, found through a linearly probed table of id + 1
  // (0 = empty), at most half full and doubled when it fills. The table
  // is lookup-only, so hash order cannot leak into anything observable.
  std::string names_;
  std::vector<std::size_t> name_starts_{0};
  std::vector<std::uint32_t> id_slots_;
  /// variable -> resident frame, kNoFrame while evicted/never admitted.
  std::vector<std::uint32_t> frame_of_;

  // Frame pool.
  std::vector<FrameInfo> frames_;
  /// Recency list over the occupied frames, ordered by (last_use, frame
  /// id) ascending — an intrusive doubly linked list, kNoFrame-ended.
  /// The key is unique: ticks rise strictly, and only never-touched
  /// frames share last_use 0, which then orders them by id. A hit or a
  /// fill moves its frame to the tail; a free admission joins after the
  /// never-touched prefix, whose last frame is `cold_tail_`.
  std::vector<std::uint32_t> recency_prev_;
  std::vector<std::uint32_t> recency_next_;
  std::uint32_t recency_head_ = kNoFrame;
  std::uint32_t recency_tail_ = kNoFrame;
  std::uint32_t cold_tail_ = kNoFrame;
  /// [0, C): the candidate set. Every frame is occupied at a miss (see
  /// eviction.h), so it never needs rebuilding.
  std::vector<std::uint32_t> all_frames_;

  /// A logical window cut across Feed calls, ids already shifted.
  std::vector<trace::Access> window_;
  /// Frame-mapped image of the window being resolved.
  std::vector<trace::Access> frame_block_;
  /// variable -> accesses of it left in the window being resolved.
  /// All zero between windows (see ResolveWindow); grown as names are
  /// registered.
  std::vector<std::uint64_t> remaining_uses_;
  /// frame -> remaining window uses of its occupant (EvictionContext).
  /// All zero between windows.
  std::vector<std::uint64_t> frame_pending_;
  /// Per-DBC offset of the window's latest routed access (-1 untouched).
  std::vector<std::int64_t> last_offsets_;
  /// Frames awaiting a writeback / fill sweep in the next hook run. A
  /// frame may legitimately appear several times (churn within one
  /// window): each occurrence is one transfer.
  std::vector<std::uint32_t> pending_writeback_frames_;
  std::vector<std::uint32_t> pending_fill_frames_;
  /// Sweep scratch, reused across windows.
  std::vector<core::Slot> slot_scratch_;
  std::vector<rtm::TimedRequest> fill_requests_;

  std::vector<CacheEvent> events_;
  std::uint64_t tick_ = 0;
  CacheStats running_{};
  bool frames_registered_ = false;
  bool finished_ = false;
};

/// Convenience: pre-registers the sequence's whole variable space in id
/// order (capacity resolved against it via ResolveCapacity), feeds every
/// access, and finishes — the cache-tier mirror of online::RunOnline.
[[nodiscard]] CacheResult RunCache(const trace::AccessSequence& seq,
                                   const CacheConfig& config,
                                   const rtm::RtmConfig& device);

}  // namespace rtmp::cache
