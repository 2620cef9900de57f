// Eviction policies for the hybrid-memory cache tier: which resident
// frame to give up when a miss needs room.
//
// The cache engine (cache/engine.h) maps logical variables onto a fixed
// pool of device frames. When an access touches a variable with no
// frame, the engine asks a policy to pick a victim among the candidate
// frames, writes the victim back if dirty, and fills the newcomer into
// the freed frame. Policies are pure victim-selectors: they see frame
// bookkeeping (recency, frequency, dirtiness), the wrapped
// engine's current placement, and a summary of the rest of the window
// (pending uses per frame), and return one frame index. All residency
// and traffic bookkeeping stays in the engine.
//
// Every frame is occupied at a miss: a miss needs more registered
// variables than frames, the first C registrations fill all C frames,
// and an eviction refills the frame it frees. The engine therefore hands
// every miss the fixed candidate set [0, C) without rebuilding it, and
// keeps the occupied frames on a recency list (EvictionContext) so
// recency-driven policies read the coldest frames without a scan.
// Per-miss cost of the built-in policies, C frames:
//
//   cache-lru          O(1) (the head of the recency list);
//   cache-shift-aware  O(k) (a shortlist of k = 8 frames);
//   cache-sample       O(K) (K = 5 draws);
//   cache-lfu          O(C) (a linear minimum over the candidates).
//
// Policies may be stateful (cache-sample keeps an RNG) but are used from
// a single thread per engine; the registry caches only the policy's
// EvictionKind, whose Create() hands out a fresh instance per call,
// precisely so engines never share policy state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/placement.h"
#include "util/registry.h"

namespace rtmp::cache {

/// Frame index sentinel: "no frame" / "no occupant" marker shared by the
/// engine and the policies.
inline constexpr std::uint32_t kNoFrame = static_cast<std::uint32_t>(-1);

/// Per-frame bookkeeping the engine maintains and policies read.
struct FrameInfo {
  /// Logical variable currently resident in this frame; kNoFrame while
  /// the frame has never been admitted to (cannot happen once misses
  /// start: admission fills frames before eviction begins).
  std::uint32_t occupant = kNoFrame;
  /// The resident word differs from the backing copy (a write landed
  /// since the fill); evicting it costs a writeback.
  bool dirty = false;
  /// Engine tick of the occupant's most recent access.
  std::uint64_t last_use = 0;
  /// Total accesses the occupant has received while resident.
  std::uint64_t uses = 0;
};

/// Everything a policy may consult when picking a victim. Spans point
/// into engine-owned storage and are valid only for the duration of the
/// PickVictim call.
struct EvictionContext {
  /// Frame indices the victim must come from (never empty), ascending;
  /// the engine passes every frame.
  std::span<const std::uint32_t> candidates;
  /// Bookkeeping for ALL frames, indexed by frame id.
  std::span<const FrameInfo> frames;
  /// Recency view: a singly walkable list of frames starting at
  /// `recency_head`, each frame's successor in `recency_next[frame]`,
  /// kNoFrame-terminated. Contract: walking it visits exactly
  /// `candidates`, ordered by (last_use, frame id) ascending — the
  /// coldest frame first.
  std::uint32_t recency_head = kNoFrame;
  std::span<const std::uint32_t> recency_next;
  /// The wrapped engine's live placement of frames onto the device, or
  /// nullptr before the first window has been placed. Frame f's slot is
  /// placement->SlotOf(f) when placement->IsPlaced(f).
  const core::Placement* placement = nullptr;
  /// Per-DBC offset of the most recent access the engine routed there
  /// this window, -1 for DBCs untouched so far — a proxy for where each
  /// DBC's port alignment sits, so shift-aware policies can price the
  /// eviction sweep. Indexed by DBC id; empty before the first window.
  std::span<const std::int64_t> last_offsets;
  /// Remaining accesses to each frame's occupant in the current window
  /// (indexed by frame id). A frame with pending uses will miss again
  /// this very window if evicted now.
  std::span<const std::uint64_t> pending_uses;
  /// Engine tick of the access that triggered the miss.
  std::uint64_t tick = 0;
};

/// Self-description of a registered eviction policy.
struct EvictionPolicyInfo {
  /// Registry key: lowercase, unique ("cache-lru", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
};

/// Abstract victim selector. One instance serves one engine; PickVictim
/// is non-const so policies may keep state (sampling RNGs, decayed
/// counters). Must return one of ctx.candidates.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Picks the frame to evict. `ctx.candidates` is never empty; the
  /// engine validates the returned frame is among them (in range and
  /// occupied — O(1)) and throws std::logic_error otherwise (a
  /// policy bug, not an input error).
  [[nodiscard]] virtual std::uint32_t PickVictim(
      const EvictionContext& ctx) = 0;
};

/// A registered eviction policy: its description plus a maker of fresh
/// instances. The registry caches the kind, never a policy — policies
/// are stateful per engine, so every Create() builds a new one.
class EvictionKind final {
 public:
  /// `seed` feeds randomized policies (cache-sample); deterministic
  /// policies ignore it.
  using Maker =
      std::function<std::unique_ptr<EvictionPolicy>(std::uint64_t seed)>;

  EvictionKind(EvictionPolicyInfo info, Maker make)
      : info_(std::move(info)), make_(std::move(make)) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept {
    return info_;
  }

  [[nodiscard]] std::unique_ptr<EvictionPolicy> Create(
      std::uint64_t seed) const {
    return make_(seed);
  }

 private:
  EvictionPolicyInfo info_;
  Maker make_;
};

/// Name -> eviction kind registry (util/registry.h). Engines call
/// `Global().Find(name)->Create(seed)`.
using EvictionPolicyRegistry = util::Registry<EvictionKind>;

/// RAII self-registration into EvictionPolicyRegistry::Global(), for
/// policies defined outside this library (see util::Registrar).
using EvictionPolicyRegistrar = util::Registrar<EvictionKind>;

/// Registers the built-in policies into `registry`:
///
///   cache-lru          evict the least recently used frame (the head
///                      of the recency list);
///   cache-lfu          evict the least frequently used frame (recency,
///                      then id, break ties);
///   cache-sample       zsim-style sampled LRU: draw K=5 candidate
///                      frames with the policy's own RNG, evict the
///                      least recently used of the sample — O(K) per
///                      miss regardless of capacity;
///   cache-shift-aware  rank an LRU-ordered shortlist (the first 8
///                      frames of the recency list) by a
///                      placement-aware score: prefer victims with no
///                      pending uses this window, then the victim whose
///                      slot is closest to its DBC's last serviced
///                      offset (the cheapest eviction sweep under the
///                      cost model's first-access-free convention), then
///                      recency.
///
/// Global() calls this once; tests use it to build fresh registries.
void RegisterBuiltinEvictionPolicies(EvictionPolicyRegistry& registry);

/// EvictionPolicyRegistry::Global()'s built-ins hook.
inline void RegisterBuiltins(EvictionPolicyRegistry& registry) {
  RegisterBuiltinEvictionPolicies(registry);
}

}  // namespace rtmp::cache
