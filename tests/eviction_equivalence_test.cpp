// Equivalence pins for the cache tier's recency-list victim selection.
//
// cache-lru and cache-shift-aware read the coldest frames off the
// engine's recency list instead of scanning every candidate frame per
// miss. Each must still pick exactly what the straightforward
// formulation picks: a linear minimum of last_use for LRU, and a
// partial_sort of the candidates by (last_use, frame id) cut to an
// 8-frame shortlist for shift-aware. The reference bodies below are
// those formulations, kept verbatim as oracles.
//
// Two levels are checked:
//  * policy level — the built-in policies against the references on
//    random frame tables;
//  * engine level — a checker policy, registered like any external
//    policy, runs inside real CacheEngine sessions (random capacity and
//    window, late registration). At every miss it checks that the
//    recency walk yields exactly the candidates in (last_use, frame id)
//    order and that the built-in policies agree with the references on
//    the engine's live context.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/engine.h"
#include "cache/eviction.h"
#include "core/placement.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/rng.h"

namespace rtmp {
namespace {

using cache::EvictionContext;
using cache::FrameInfo;
using cache::kNoFrame;

// ---- reference implementations -------------------------------------------

std::uint32_t ReferenceLru(std::span<const std::uint32_t> candidates,
                           std::span<const FrameInfo> frames) {
  std::uint32_t best = candidates.front();
  for (const std::uint32_t frame : candidates.subspan(1)) {
    if (frames[frame].last_use < frames[best].last_use) best = frame;
  }
  return best;
}

struct ReferenceScore {
  std::uint64_t pending = 0;
  std::uint64_t distance = 0;
  std::uint64_t last_use = 0;
  std::uint32_t frame = 0;

  [[nodiscard]] bool operator<(const ReferenceScore& other) const noexcept {
    if (pending != other.pending) return pending < other.pending;
    if (distance != other.distance) return distance < other.distance;
    if (last_use != other.last_use) return last_use < other.last_use;
    return frame < other.frame;
  }
};

ReferenceScore ReferenceScoreOf(std::uint32_t frame,
                                const EvictionContext& ctx) {
  ReferenceScore score;
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
      score.distance = slot.offset;
    }
  }
  return score;
}

std::uint32_t ReferenceShiftAware(const EvictionContext& ctx) {
  constexpr std::size_t kShortlist = 8;
  std::vector<std::uint32_t> shortlist(ctx.candidates.begin(),
                                       ctx.candidates.end());
  const auto lru_order = [&ctx](std::uint32_t a, std::uint32_t b) {
    if (ctx.frames[a].last_use != ctx.frames[b].last_use) {
      return ctx.frames[a].last_use < ctx.frames[b].last_use;
    }
    return a < b;
  };
  if (shortlist.size() > kShortlist) {
    std::partial_sort(shortlist.begin(), shortlist.begin() + kShortlist,
                      shortlist.end(), lru_order);
    shortlist.resize(kShortlist);
  } else {
    std::sort(shortlist.begin(), shortlist.end(), lru_order);
  }
  std::uint32_t best = shortlist.front();
  ReferenceScore best_key = ReferenceScoreOf(best, ctx);
  for (std::size_t i = 1; i < shortlist.size(); ++i) {
    const ReferenceScore key = ReferenceScoreOf(shortlist[i], ctx);
    if (key < best_key) {
      best = shortlist[i];
      best_key = key;
    }
  }
  return best;
}

/// `candidates` sorted by the recency key (last_use, frame id).
std::vector<std::uint32_t> SortedByRecency(
    std::span<const std::uint32_t> candidates,
    std::span<const FrameInfo> frames) {
  std::vector<std::uint32_t> order(candidates.begin(), candidates.end());
  std::sort(order.begin(), order.end(),
            [&frames](std::uint32_t a, std::uint32_t b) {
              if (frames[a].last_use != frames[b].last_use) {
                return frames[a].last_use < frames[b].last_use;
              }
              return a < b;
            });
  return order;
}

/// The frames the context's recency walk visits, in order.
std::vector<std::uint32_t> RecencyWalk(const EvictionContext& ctx) {
  std::vector<std::uint32_t> walk;
  for (std::uint32_t f = ctx.recency_head; f != kNoFrame;
       f = ctx.recency_next[f]) {
    walk.push_back(f);
    if (walk.size() > ctx.frames.size()) break;  // cycle guard
  }
  return walk;
}

std::unique_ptr<cache::EvictionPolicy> Builtin(const char* name) {
  return cache::EvictionPolicyRegistry::Global().Find(name)->Create(0);
}

// ---- policy level ----------------------------------------------------------

TEST(EvictionEquivalence, RecencyWalkMatchesReferencesOnRandomFrameTables) {
  util::Rng rng(0x5EC0);
  const auto lru = Builtin("cache-lru");
  const auto shift_aware = Builtin("cache-shift-aware");
  for (int round = 0; round < 400; ++round) {
    const auto capacity = static_cast<std::uint32_t>(1 + rng.NextBelow(40));
    // A narrow last_use range forces ties, which the frame id breaks.
    const std::uint64_t span = 1 + rng.NextBelow(2 * capacity);
    std::vector<FrameInfo> frames(capacity);
    std::vector<std::uint64_t> pending(capacity);
    for (std::uint32_t f = 0; f < capacity; ++f) {
      frames[f].occupant = f;
      frames[f].last_use = rng.NextBelow(span);
      pending[f] = rng.NextBool(0.5) ? 0 : rng.NextBelow(4);
    }
    // Random placement of the frames over 1-4 DBCs, some left unplaced.
    const auto dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(4));
    std::vector<std::vector<trace::VariableId>> lists(dbcs);
    for (std::uint32_t f = 0; f < capacity; ++f) {
      if (rng.NextBool(0.9)) lists[rng.NextBelow(dbcs)].push_back(f);
    }
    for (auto& list : lists) rng.Shuffle(list);
    const core::Placement placement =
        core::Placement::FromLists(lists, capacity);
    // Some DBCs untouched (-1), and sometimes a short offsets table.
    std::vector<std::int64_t> last_offsets(
        rng.NextBool(0.2) ? rng.NextBelow(dbcs + 1) : dbcs);
    for (std::int64_t& offset : last_offsets) {
      offset = rng.NextBool(0.3)
                   ? -1
                   : static_cast<std::int64_t>(rng.NextBelow(capacity));
    }

    std::vector<std::uint32_t> all(capacity);
    for (std::uint32_t f = 0; f < capacity; ++f) all[f] = f;
    const std::vector<std::uint32_t> order = SortedByRecency(all, frames);
    std::vector<std::uint32_t> next(capacity, kNoFrame);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      next[order[i]] = order[i + 1];
    }

    EvictionContext ctx;
    ctx.frames = frames;
    ctx.recency_head = order.front();
    ctx.recency_next = next;
    ctx.placement = rng.NextBool(0.8) ? &placement : nullptr;
    ctx.last_offsets = last_offsets;
    ctx.pending_uses = pending;

    ctx.candidates = all;
    EXPECT_EQ(lru->PickVictim(ctx), ReferenceLru(all, frames))
        << "round " << round;
    EXPECT_EQ(shift_aware->PickVictim(ctx), ReferenceShiftAware(ctx))
        << "round " << round;
  }
}

// ---- engine level ----------------------------------------------------------

/// What the checker policy saw, summed over every miss of a test.
struct CheckerTally {
  std::uint64_t misses = 0;
  std::uint64_t walk_mismatches = 0;
  std::uint64_t lru_mismatches = 0;
  std::uint64_t shift_aware_mismatches = 0;
};

CheckerTally& Tally() {
  static CheckerTally tally;
  return tally;
}

/// Checks the engine's recency view and both list-walking built-ins
/// against the references at every miss, then evicts what `evicts`
/// (a built-in policy) picks, so the session runs as that policy would.
class RecencyCheckerPolicy final : public cache::EvictionPolicy {
 public:
  explicit RecencyCheckerPolicy(const char* evicts)
      : lru_(Builtin("cache-lru")),
        shift_aware_(Builtin("cache-shift-aware")),
        evicts_(Builtin(evicts)) {}

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    CheckerTally& tally = Tally();
    ++tally.misses;
    if (RecencyWalk(ctx) != SortedByRecency(ctx.candidates, ctx.frames)) {
      ++tally.walk_mismatches;
    }
    if (lru_->PickVictim(ctx) != ReferenceLru(ctx.candidates, ctx.frames)) {
      ++tally.lru_mismatches;
    }
    if (shift_aware_->PickVictim(ctx) != ReferenceShiftAware(ctx)) {
      ++tally.shift_aware_mismatches;
    }
    return evicts_->PickVictim(ctx);
  }

 private:
  std::unique_ptr<cache::EvictionPolicy> lru_;
  std::unique_ptr<cache::EvictionPolicy> shift_aware_;
  std::unique_ptr<cache::EvictionPolicy> evicts_;
};

/// A registry entry for a checker that evicts like `evicts`.
std::shared_ptr<const cache::EvictionKind> CheckerKind(const char* name,
                                                       const char* evicts) {
  return std::make_shared<const cache::EvictionKind>(
      cache::EvictionPolicyInfo{name, "recency-list checker"},
      [evicts](std::uint64_t) {
        return std::make_unique<RecencyCheckerPolicy>(evicts);
      });
}

std::shared_ptr<const cache::EvictionKind> LruChecker() {
  return CheckerKind("check-lru", "cache-lru");
}

std::shared_ptr<const cache::EvictionKind> ShiftAwareChecker() {
  return CheckerKind("check-shift-aware", "cache-shift-aware");
}

const cache::EvictionPolicyRegistrar kLruChecker{"check-lru", LruChecker};
const cache::EvictionPolicyRegistrar kShiftAwareChecker{"check-shift-aware",
                                                        ShiftAwareChecker};

/// One random session: registers a random prefix of the variables up
/// front and the rest while feeding (late ids below the capacity are
/// admitted for free after ticks have started).
void RunRandomSession(util::Rng& rng, const std::string& eviction) {
  const std::size_t capacity = 1 + rng.NextBelow(24);
  const std::size_t variables = capacity + 1 + rng.NextBelow(2 * capacity + 4);

  cache::CacheConfig config;
  config.eviction = eviction;
  config.capacity_slots = capacity;
  config.engine.reseed_strategy = "dma-sr";
  config.engine.window_accesses = 1 + rng.NextBelow(40);
  if (rng.NextBool(0.5)) {
    config.engine.detector.kind = online::DetectorKind::kFixedWindow;
    config.engine.detector.period = 1 + rng.NextBelow(3);
  } else {
    config.engine.detector.kind = online::DetectorKind::kNone;
  }
  const auto dbcs = static_cast<unsigned>(2u << rng.NextBelow(3));
  cache::CacheEngine engine(config, sim::CellConfig(dbcs, capacity));

  std::size_t registered = 0;
  const auto register_next = [&] {
    std::string name = "v";
    name += std::to_string(registered);
    (void)engine.RegisterVariable(name);
    ++registered;
  };
  const std::size_t upfront = rng.NextBelow(variables + 1);
  while (registered < upfront) register_next();

  const std::size_t length = 200 + rng.NextBelow(1000);
  for (std::size_t i = 0; i < length; ++i) {
    if (registered < variables && (registered == 0 || rng.NextBool(0.05))) {
      register_next();
    }
    // Skew toward a sliding hot set so hits and misses interleave.
    const std::size_t hot = std::min<std::size_t>(registered, 6);
    const std::size_t base = (i / 50) % registered;
    const std::size_t variable =
        rng.NextBool(0.7) ? (base + rng.NextBelow(hot)) % registered
                          : rng.NextBelow(registered);
    const trace::Access access{
        static_cast<std::uint32_t>(variable),
        rng.NextBool(0.3) ? trace::AccessType::kWrite
                          : trace::AccessType::kRead};
    engine.Feed(std::span<const trace::Access>(&access, 1));
  }
  (void)engine.Finish();
}

TEST(EvictionEquivalence, EngineRecencyListMatchesSortedCandidatesAtEveryMiss) {
  Tally() = {};
  util::Rng rng(0xE71C7);
  for (int session = 0; session < 300; ++session) {
    const char* eviction = session % 2 == 0 ? "check-lru" : "check-shift-aware";
    RunRandomSession(rng, eviction);
  }
  const CheckerTally& tally = Tally();
  EXPECT_EQ(tally.walk_mismatches, 0u);
  EXPECT_EQ(tally.lru_mismatches, 0u);
  EXPECT_EQ(tally.shift_aware_mismatches, 0u);
  // The sessions must actually exercise the miss path.
  EXPECT_GT(tally.misses, 10000u);
}

}  // namespace
}  // namespace rtmp
