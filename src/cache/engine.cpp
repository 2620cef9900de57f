#include "cache/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "online/migration.h"
#include "util/strings.h"

namespace rtmp::cache {

namespace {

using TraceArg = obs::TraceRecorder::Arg;

/// (dbc, offset) sweep order for AppendSweepRequests.
bool SlotSweepOrder(const core::Slot& a, const core::Slot& b) noexcept {
  if (a.dbc != b.dbc) return a.dbc < b.dbc;
  return a.offset < b.offset;
}

}  // namespace

std::size_t ResolveCapacity(const CacheConfig& config,
                            std::size_t num_variables) {
  if (config.capacity_slots != 0) return config.capacity_slots;
  if (!std::isfinite(config.capacity_ratio) || config.capacity_ratio <= 0.0 ||
      config.capacity_ratio > 1.0) {
    throw std::invalid_argument(
        "ResolveCapacity: capacity_ratio must be in (0, 1]");
  }
  const double scaled =
      std::ceil(config.capacity_ratio * static_cast<double>(num_variables));
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
}

CacheEngine::CacheEngine(CacheConfig config, rtm::RtmConfig device)
    : config_(std::move(config)),
      engine_(config_.engine, device) {
  if (config_.capacity_slots == 0) {
    throw std::invalid_argument(
        "CacheEngine: capacity_slots must be resolved (> 0); "
        "see ResolveCapacity");
  }
  const auto kind = EvictionPolicyRegistry::Global().Find(config_.eviction);
  if (kind == nullptr) {
    throw std::invalid_argument("CacheEngine: unknown eviction policy '" +
                                config_.eviction + "'");
  }
  policy_ = kind->Create(config_.eviction_seed);
  frames_.resize(config_.capacity_slots);
  recency_prev_.assign(frames_.size(), kNoFrame);
  recency_next_.assign(frames_.size(), kNoFrame);
  all_frames_.resize(frames_.size());
  for (std::uint32_t f = 0; f < all_frames_.size(); ++f) all_frames_[f] = f;
  frame_pending_.assign(frames_.size(), 0);
  last_offsets_.assign(device.total_dbcs(), -1);
  engine_.SetPreServeHook(
      [this](const core::Placement& placement, rtm::RtmController& controller) {
        ExecutePendingFills(placement, controller);
      });
}

std::uint32_t CacheEngine::RegisterVariable(std::string_view name) {
  if (finished_) {
    throw std::logic_error("CacheEngine: RegisterVariable after Finish");
  }
  const auto id = static_cast<std::uint32_t>(frame_of_.size());
  if (2 * (std::size_t{id} + 1) > id_slots_.size()) {
    id_slots_.assign(std::max<std::size_t>(16, 2 * id_slots_.size()), 0);
    for (std::uint32_t v = 0; v < id; ++v) SlotOf(NameOf(v)) = v + 1;
  }
  std::uint32_t& slot = SlotOf(name);
  if (slot != 0) return slot - 1;
  slot = id + 1;
  names_ += name;
  name_starts_.push_back(names_.size());
  frame_of_.push_back(kNoFrame);
  if (id < frames_.size()) {
    // Free admission: the initial resident set (see RegisterVariable doc).
    frame_of_[id] = id;
    frames_[id].occupant = id;
    // last_use 0 and the largest id admitted so far: the end of the
    // never-touched prefix, even when registration follows feeding.
    LinkAfter(id, cold_tail_);
    cold_tail_ = id;
  }
  return id;
}

std::uint32_t& CacheEngine::SlotOf(std::string_view name) {
  const std::size_t mask = id_slots_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(name) & mask;
  while (id_slots_[i] != 0 && NameOf(id_slots_[i] - 1) != name) {
    i = (i + 1) & mask;
  }
  return id_slots_[i];
}

void CacheEngine::LinkAfter(std::uint32_t frame, std::uint32_t after) {
  const std::uint32_t next =
      after == kNoFrame ? recency_head_ : recency_next_[after];
  recency_prev_[frame] = after;
  recency_next_[frame] = next;
  (after == kNoFrame ? recency_head_ : recency_next_[after]) = frame;
  (next == kNoFrame ? recency_tail_ : recency_prev_[next]) = frame;
}

void CacheEngine::Unlink(std::uint32_t frame) {
  const std::uint32_t prev = recency_prev_[frame];
  const std::uint32_t next = recency_next_[frame];
  (prev == kNoFrame ? recency_head_ : recency_next_[prev]) = next;
  (next == kNoFrame ? recency_tail_ : recency_prev_[next]) = prev;
}

void CacheEngine::Touch(std::uint32_t frame) {
  // The never-touched frames are a prefix of the list, so losing its
  // last frame hands the role to that frame's predecessor.
  if (frame == cold_tail_) cold_tail_ = recency_prev_[frame];
  if (frame == recency_tail_) return;
  Unlink(frame);
  LinkAfter(frame, recency_tail_);
}

void CacheEngine::Feed(std::span<const trace::Access> accesses,
                       std::uint32_t id_offset) {
  if (finished_) {
    throw std::logic_error("CacheEngine: Feed after Finish");
  }
  // Every shifted id is checked before anything is fed, as
  // variable < variables_seen() - id_offset: forming variable + id_offset
  // could wrap onto a small registered id.
  const std::size_t bound =
      id_offset < variables_seen() ? variables_seen() - id_offset : 0;
  for (const trace::Access& access : accesses) {
    if (access.variable >= bound) {
      throw std::out_of_range("CacheEngine: unregistered variable id");
    }
  }
  // A whole window is resolved where it lies in the block; one cut across
  // calls is gathered in `window_`, closing as soon as it is full.
  const std::size_t limit = config_.engine.window_accesses;
  for (std::size_t i = 0, take = 0; i < accesses.size(); i += take) {
    take = std::min(limit - window_.size(), accesses.size() - i);
    if (window_.empty() && take == limit) {
      ResolveWindow(accesses.subspan(i, take), id_offset);
      continue;
    }
    for (const trace::Access& access : accesses.subspan(i, take)) {
      window_.push_back({access.variable + id_offset, access.type});
    }
    if (window_.size() >= limit) ResolveWindow(window_, 0);
  }
}

void CacheEngine::FlushWindow() {
  if (finished_) {
    throw std::logic_error("CacheEngine: FlushWindow after Finish");
  }
  ResolveWindow(window_, 0);
}

void CacheEngine::RegisterFramePool() {
  if (frames_registered_) return;
  frames_registered_ = true;
  // The wrapped engine's variable space IS the frame pool, registered in
  // id order so frame f maps to wrapped-engine variable f. Each frame
  // takes its CURRENT occupant's logical name: the reseed strategies
  // break access-frequency ties by variable name (see
  // core::SortByFrequencyDescending), so with capacity >= the working
  // set the wrapped engine must see the exact names a bare engine would
  // — that is what keeps the full-capacity oracle bit-identical.
  // Unoccupied frames get a synthetic name, disambiguated if a logical
  // variable happens to share it (AddVariable dedupes by name, and a
  // dedupe hit here would silently fuse two frames).
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    const std::uint32_t occupant = frames_[f].occupant;
    std::string name = occupant != kNoFrame
                           ? std::string(NameOf(occupant))
                           : util::Concat({"f", std::to_string(f)});
    std::uint32_t id = engine_.RegisterVariable(name);
    while (id != f) {
      name += "'";
      id = engine_.RegisterVariable(name);
    }
  }
}

void CacheEngine::ResolveWindow(std::span<const trace::Access> accesses,
                                std::uint32_t id_offset) {
  if (accesses.empty()) return;
  RegisterFramePool();

  // Between windows both upkeep arrays are all zero, so one pass over the
  // window counts its variables' uses, each resident one's on its frame
  // too: O(window), not O(V + C). Every count raised below is decremented
  // once per access of the loop that follows, so it ends at zero; and a
  // frame's entry is last written by its final occupant's last access of
  // the window (nothing is left of it then), or not at all when that
  // occupant is idle this window. A throw mid-window restores the zeros.
  if (remaining_uses_.size() < variables_seen()) {
    remaining_uses_.resize(variables_seen(), 0);
  }
  for (const trace::Access& access : accesses) {
    const std::uint32_t variable = access.variable + id_offset;
    ++remaining_uses_[variable];
    if (frame_of_[variable] != kNoFrame) ++frame_pending_[frame_of_[variable]];
  }
  std::fill(last_offsets_.begin(), last_offsets_.end(), -1);
  // Victim ranking peeks the placement that served the PREVIOUS window —
  // this window's final placement is only decided after its misses are
  // resolved (the wrapped engine may still re-seed or refine). That is
  // the honest information order of a real controller: eviction happens
  // before re-placement.
  const std::span<const core::Slot> slots = engine_.placement().slots();

  try {
    ResolveAccesses(accesses, id_offset, slots);
  } catch (...) {
    for (const trace::Access& access : accesses) {
      remaining_uses_[access.variable + id_offset] = 0;
    }
    std::fill(frame_pending_.begin(), frame_pending_.end(), 0);
    throw;
  }
  window_.clear();

  engine_.Feed(std::span<const trace::Access>(frame_block_));
  // A full frame_block_ was already decided and served inside Feed; a
  // partial one is forced out here so the wrapped window boundaries
  // stay 1:1 with logical windows (and the pre-serve hook runs).
  engine_.FlushWindow();
}

void CacheEngine::ResolveAccesses(std::span<const trace::Access> accesses,
                                  std::uint32_t id_offset,
                                  std::span<const core::Slot> slots) {
  const std::uint64_t misses_before = running_.misses;
  // Sized once per window length: a miss queues at most a writeback and a fill.
  frame_block_.resize(accesses.size());
  pending_writeback_frames_.reserve(accesses.size());
  pending_fill_frames_.reserve(accesses.size());
  slot_scratch_.reserve(accesses.size());
  fill_requests_.reserve(2 * accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const std::uint32_t variable = accesses[i].variable + id_offset;
    const trace::AccessType type = accesses[i].type;
    ++tick_;
    std::uint32_t frame = frame_of_[variable];
    if (frame != kNoFrame) {
      FrameInfo& info = frames_[frame];
      info.last_use = tick_;
      Touch(frame);
      ++info.uses;
      info.dirty |= type == trace::AccessType::kWrite;
      if (config_.record_events) {
        events_.push_back({tick_, variable, frame, CacheEvent::Kind::kHit,
                           kNoFrame, false});
      }
    } else {
      frame = ResolveMiss(variable, type);
    }
    --remaining_uses_[variable];
    frame_pending_[frame] = remaining_uses_[variable];
    frame_block_[i] = {frame, type};
    // An unplaced frame's DBC is past the last one.
    if (frame < slots.size() && slots[frame].dbc < last_offsets_.size()) {
      last_offsets_[slots[frame].dbc] = slots[frame].offset;
    }
  }
  running_.accesses += accesses.size();
  running_.hits += accesses.size() - (running_.misses - misses_before);
}

std::uint32_t CacheEngine::ResolveMiss(std::uint32_t variable,
                                       trace::AccessType type) {
  ++running_.misses;
  EvictionContext ctx;
  ctx.candidates = all_frames_;
  ctx.frames = frames_;
  ctx.recency_head = recency_head_;
  ctx.recency_next = recency_next_;
  ctx.placement = engine_.placed() ? &engine_.placement() : nullptr;
  ctx.last_offsets = last_offsets_;
  ctx.pending_uses = frame_pending_;
  ctx.tick = tick_;
  const std::uint32_t victim = policy_->PickVictim(ctx);
  if (victim >= frames_.size() || frames_[victim].occupant == kNoFrame) {
    throw std::logic_error(
        "CacheEngine: eviction policy picked a non-candidate frame");
  }

  FrameInfo& info = frames_[victim];
  const std::uint32_t evicted = info.occupant;
  const bool wrote_back = info.dirty;
  if (wrote_back) {
    ++running_.writebacks;
    pending_writeback_frames_.push_back(victim);
  }
  ++running_.fills;
  pending_fill_frames_.push_back(victim);

  frame_of_[evicted] = kNoFrame;
  frame_of_[variable] = victim;
  info.occupant = variable;
  info.dirty = type == trace::AccessType::kWrite;
  info.last_use = tick_;
  Touch(victim);
  info.uses = 1;
  if (config_.record_events) {
    events_.push_back(
        {tick_, variable, victim, CacheEvent::Kind::kMiss, evicted,
         wrote_back});
  }
  const obs::ObsConfig& sinks = config_.engine.obs;
  if (sinks.trace != nullptr) {
    const TraceArg args[] = {
        {"variable", false, variable},
        {"evicted", false, evicted},
        {"wrote_back", false, wrote_back ? 1u : 0u},
    };
    sinks.trace->Instant("cache-miss", sinks.pid, sinks.tid,
                         engine_.DeviceStats().makespan_ns, args);
  }
  return victim;
}

void CacheEngine::ExecutePendingFills(const core::Placement& placement,
                                      rtm::RtmController& controller) {
  if (pending_writeback_frames_.empty() && pending_fill_frames_.empty()) {
    return;
  }
  fill_requests_.clear();
  const auto sweep = [this, &placement](
                         const std::vector<std::uint32_t>& frames,
                         trace::AccessType type) {
    if (frames.empty()) return;
    slot_scratch_.clear();
    for (const std::uint32_t frame : frames) {
      // Frames are pre-registered, so every frame is placed from window
      // 0 on; the guard only shields a hook fired before any placement.
      if (!placement.IsPlaced(frame)) continue;
      slot_scratch_.push_back(placement.SlotOf(frame));
    }
    std::sort(slot_scratch_.begin(), slot_scratch_.end(), SlotSweepOrder);
    (void)online::AppendSweepRequests(slot_scratch_, type, fill_requests_);
  };
  // Victims drain first (reads), then the incoming words land (writes) —
  // the order a migration buffer would use; each phase is one ascending-
  // offset sweep per DBC.
  sweep(pending_writeback_frames_, trace::AccessType::kRead);
  sweep(pending_fill_frames_, trace::AccessType::kWrite);
  pending_writeback_frames_.clear();
  pending_fill_frames_.clear();
  if (fill_requests_.empty()) return;

  const std::uint64_t before = controller.stats().shifts;
  const double makespan_before = controller.stats().makespan_ns;
  controller.ExecuteBatch(fill_requests_);
  const std::uint64_t sweep_shifts = controller.stats().shifts - before;
  running_.fill_shifts += sweep_shifts;
  running_.fill_accesses += fill_requests_.size();
  const obs::ObsConfig& sinks = config_.engine.obs;
  if (sinks.trace != nullptr) {
    const TraceArg args[] = {
        {"requests", false, fill_requests_.size()},
        {"shifts", false, sweep_shifts},
    };
    const double span_ns = controller.stats().makespan_ns - makespan_before;
    sinks.trace->Complete("fill-sweep", sinks.pid, sinks.tid, makespan_before,
                          span_ns, args);
  }
}

CacheResult CacheEngine::Finish() {
  if (finished_) {
    throw std::logic_error("CacheEngine: Finish called twice");
  }
  ResolveWindow(window_, 0);
  // A never-fed session still registers the pool so the wrapped engine
  // places it, mirroring the static path on empty sequences.
  RegisterFramePool();
  CacheResult result;
  result.online = engine_.Finish();
  result.cache = stats();
  result.events = std::move(events_);
  finished_ = true;
  if (obs::MetricsRegistry* metrics = config_.engine.obs.metrics) {
    metrics->Counter("cache/hits") += result.cache.hits;
    metrics->Counter("cache/misses") += result.cache.misses;
    metrics->Counter("cache/fills") += result.cache.fills;
    metrics->Counter("cache/writebacks") += result.cache.writebacks;
    metrics->Counter("cache/fill_shifts") += result.cache.fill_shifts;
  }
  return result;
}

CacheStats CacheEngine::stats() const {
  CacheStats out = running_;
  out.backing_ns = BackingBusyNs(out.fills, out.writebacks);
  out.backing_pj = BackingEnergyPj(out.fills, out.writebacks);
  return out;
}

std::size_t CacheEngine::resident() const noexcept {
  std::size_t count = 0;
  for (const FrameInfo& frame : frames_) {
    if (frame.occupant != kNoFrame) ++count;
  }
  return count;
}

CacheResult RunCache(const trace::AccessSequence& seq,
                     const CacheConfig& config, const rtm::RtmConfig& device) {
  CacheConfig resolved = config;
  resolved.capacity_slots = ResolveCapacity(config, seq.num_variables());
  CacheEngine engine(std::move(resolved), device);
  for (trace::VariableId v = 0;
       v < static_cast<trace::VariableId>(seq.num_variables()); ++v) {
    (void)engine.RegisterVariable(seq.name_of(v));
  }
  engine.Feed(seq.accesses());
  return engine.Finish();
}

}  // namespace rtmp::cache
