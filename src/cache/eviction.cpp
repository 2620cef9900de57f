#include "cache/eviction.h"

#include <cstdlib>
#include <memory>

#include "util/rng.h"

namespace rtmp::cache {

namespace {

/// Least-recently-used frame among `candidates`; frame id breaks ties
/// (candidates arrive in ascending frame order, so "first strict
/// improvement wins" is the id tie-break).
std::uint32_t LeastRecentlyUsed(std::span<const std::uint32_t> candidates,
                                std::span<const FrameInfo> frames) {
  std::uint32_t best = candidates.front();
  for (const std::uint32_t frame : candidates.subspan(1)) {
    if (frames[frame].last_use < frames[best].last_use) best = frame;
  }
  return best;
}

/// The recency list's coldest frame: O(1).
class LruPolicy final : public EvictionPolicy {
 public:
  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    return ctx.recency_head;
  }
};

class LfuPolicy final : public EvictionPolicy {
 public:
  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    std::uint32_t best = ctx.candidates.front();
    for (const std::uint32_t frame : ctx.candidates.subspan(1)) {
      const FrameInfo& f = ctx.frames[frame];
      const FrameInfo& b = ctx.frames[best];
      if (f.uses != b.uses) {
        if (f.uses < b.uses) best = frame;
      } else if (f.last_use < b.last_use) {
        best = frame;
      }
    }
    return best;
  }
};

/// zsim-style sampled LRU: O(K) per miss. Sampling is with replacement
/// (duplicates just waste a draw) and uses the policy's own xoshiro
/// stream so two engines with the same seed replay identically.
class SampledLruPolicy final : public EvictionPolicy {
 public:
  static constexpr std::size_t kSample = 5;

  explicit SampledLruPolicy(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    if (ctx.candidates.size() <= kSample) {
      return LeastRecentlyUsed(ctx.candidates, ctx.frames);
    }
    std::uint32_t best = kNoFrame;
    for (std::size_t draw = 0; draw < kSample; ++draw) {
      const std::uint32_t frame =
          ctx.candidates[rng_.NextBelow(ctx.candidates.size())];
      if (best == kNoFrame ||
          ctx.frames[frame].last_use < ctx.frames[best].last_use ||
          (ctx.frames[frame].last_use == ctx.frames[best].last_use &&
           frame < best)) {
        best = frame;
      }
    }
    return best;
  }

 private:
  util::Rng rng_;
};

/// Placement-aware eviction: shortlist the 8 least recently used
/// candidates (the head of the recency list), then pick the one that
/// (a) will not be re-missed this window (no pending uses), (b) sits
/// closest to where its DBC's port alignment already is — so the
/// eviction read sweep adds the fewest shifts under the
/// first-access-free convention — and (c) is coldest, in that
/// lexicographic order.
class ShiftAwarePolicy final : public EvictionPolicy {
 public:
  static constexpr std::size_t kShortlist = 8;

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    // The shortlist is the first kShortlist frames of the recency list,
    // visited coldest first. Score is a total order (the frame id is its
    // last key), so the visiting order cannot change the pick.
    std::uint32_t best = kNoFrame;
    Score best_key;
    std::uint32_t frame = ctx.recency_head;
    for (std::size_t listed = 0; frame != kNoFrame;) {
      const Score key = ScoreOf(frame, ctx);
      if (best == kNoFrame || key < best_key) {
        best = frame;
        best_key = key;
      }
      if (++listed == kShortlist) break;
      frame = ctx.recency_next[frame];
    }
    return best;
  }

 private:
  struct Score {
    std::uint64_t pending = 0;   ///< re-miss guard: churny frames lose
    std::uint64_t distance = 0;  ///< sweep shifts to reach the slot
    std::uint64_t last_use = 0;
    std::uint32_t frame = 0;

    [[nodiscard]] bool operator<(const Score& other) const noexcept {
      if (pending != other.pending) return pending < other.pending;
      if (distance != other.distance) return distance < other.distance;
      if (last_use != other.last_use) return last_use < other.last_use;
      return frame < other.frame;
    }
  };

  [[nodiscard]] Score ScoreOf(std::uint32_t frame,
                              const EvictionContext& ctx) const {
    Score score;
    score.pending = ctx.pending_uses[frame];
    score.last_use = ctx.frames[frame].last_use;
    score.frame = frame;
    if (ctx.placement != nullptr && ctx.placement->IsPlaced(frame)) {
      const core::Slot slot = ctx.placement->SlotOf(frame);
      if (slot.dbc < ctx.last_offsets.size() &&
          ctx.last_offsets[slot.dbc] >= 0) {
        score.distance = static_cast<std::uint64_t>(
            std::llabs(static_cast<std::int64_t>(slot.offset) -
                       ctx.last_offsets[slot.dbc]));
      } else {
        // Untouched DBC: the sweep pays the alignment distance from the
        // port, approximated by the slot's offset itself.
        score.distance = slot.offset;
      }
    }
    return score;
  }
};

}  // namespace

void RegisterBuiltinEvictionPolicies(EvictionPolicyRegistry& registry) {
  const auto add = [&registry](const EvictionPolicyInfo& info,
                               const EvictionKind::Maker& make) {
    registry.Register(info.name, [info, make] {
      return std::make_shared<const EvictionKind>(info, make);
    });
  };
  add({"cache-lru", "evict the least recently used resident frame"},
      [](std::uint64_t) { return std::make_unique<LruPolicy>(); });
  add({"cache-lfu",
       "evict the least frequently used resident frame (recency breaks "
       "ties)"},
      [](std::uint64_t) { return std::make_unique<LfuPolicy>(); });
  add({"cache-sample",
       "zsim-style sampled LRU: evict the least recently used of 5 "
       "randomly drawn frames"},
      [](std::uint64_t seed) {
        return std::make_unique<SampledLruPolicy>(seed);
      });
  add({"cache-shift-aware",
       "evict the cold frame whose slot is cheapest to sweep from the "
       "current port alignment, avoiding frames still needed this window"},
      [](std::uint64_t) { return std::make_unique<ShiftAwarePolicy>(); });
}

}  // namespace rtmp::cache
