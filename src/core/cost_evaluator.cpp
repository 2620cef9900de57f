// rtmlint: hot-path — mutation scoring runs millions of Price* calls per
// second; allocations here are advisory findings (see hot-path-alloc).
#include "core/cost_evaluator.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <span>
#include <stdexcept>

namespace rtmp::core {

namespace {

std::uint64_t PackPair(VariableId u, VariableId v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

std::uint64_t OffsetDistance(std::uint32_t a, std::uint32_t b) noexcept {
  return a > b ? a - b : b - a;
}

std::uint64_t PortDistance(std::uint32_t offset, std::int64_t port) noexcept {
  return static_cast<std::uint64_t>(
      std::llabs(static_cast<std::int64_t>(offset) - port));
}

std::uint64_t MixKey(std::uint64_t key) noexcept {
  // splitmix64 finalizer: cheap and well distributed for packed pairs.
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ULL;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBULL;
  return key ^ (key >> 31);
}

}  // namespace

// ---- EdgeIndex -------------------------------------------------------------

std::uint32_t CostEvaluator::EdgeIndex::FindOrInsert(std::uint64_t key,
                                                     std::uint32_t fresh) {
  if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) Grow();
  const std::size_t mask = keys_.size() - 1;
  std::size_t slot = static_cast<std::size_t>(MixKey(key)) & mask;
  while (keys_[slot] != kEmptyKey) {
    if (keys_[slot] == key) return slots_[slot];
    slot = (slot + 1) & mask;
  }
  keys_[slot] = key;
  slots_[slot] = fresh;
  ++size_;
  return fresh;
}

void CostEvaluator::EdgeIndex::Clear() noexcept {
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

void CostEvaluator::EdgeIndex::Grow() {
  const std::size_t capacity = keys_.empty() ? 16 : keys_.size() * 2;
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint32_t> old_slots = std::move(slots_);
  keys_.assign(capacity, kEmptyKey);
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    std::size_t slot = static_cast<std::size_t>(MixKey(old_keys[i])) & mask;
    while (keys_[slot] != kEmptyKey) slot = (slot + 1) & mask;
    keys_[slot] = old_keys[i];
    slots_[slot] = old_slots[i];
  }
}

// ---- construction ----------------------------------------------------------

CostEvaluator::CostEvaluator(const trace::AccessSequence& seq,
                             CostOptions options)
    : seq_(&seq), options_(std::move(options)) {
  if (options_.port_offsets.empty()) {
    throw std::invalid_argument("CostOptions: need at least one port");
  }
  if (options_.domains_per_dbc != 0) {
    for (const std::uint32_t port : options_.port_offsets) {
      if (port >= options_.domains_per_dbc) {
        throw std::invalid_argument("CostEvaluator: port offset out of range");
      }
    }
  }
  single_port_ = options_.port_offsets.size() == 1;
  first_pays_ = options_.initial_alignment == rtm::InitialAlignment::kZero;
  port_ = static_cast<std::int64_t>(options_.port_offsets.front());
  var_of_.reserve(seq.size());
  for (std::uint32_t t = 0; t < seq.size(); ++t) {
    var_of_.push_back(seq[t].variable);
  }
  // CSR position table via counting sort: one contiguous arena, grouped
  // by variable, ascending within each group (Append order).
  pos_begin_.assign(seq.num_variables() + 1, 0);
  for (const VariableId v : var_of_) ++pos_begin_[v + 1];
  for (std::size_t v = 1; v < pos_begin_.size(); ++v) {
    pos_begin_[v] += pos_begin_[v - 1];
  }
  pos_data_.resize(seq.size());
  {
    std::vector<std::uint32_t> cursor(pos_begin_.begin(),
                                      pos_begin_.end() - 1);
    for (std::uint32_t t = 0; t < seq.size(); ++t) {
      pos_data_[cursor[var_of_[t]]++] = t;
    }
  }
  prev_.assign(seq.size(), kNoPosition);
  next_.assign(seq.size(), kNoPosition);
  offset_scratch_.assign(seq.num_variables(), 0);
}

void CostEvaluator::RequireBound() const {
  if (!bound_) {
    throw std::logic_error("CostEvaluator: no placement bound");
  }
}

std::uint64_t CostEvaluator::TotalFromDbcs() const {
  std::uint64_t total = 0;
  for (const DbcData& data : dbcs_) total += data.cost;
  return total;
}

void CostEvaluator::AssertMatchesShiftCost() const {
#ifndef NDEBUG
  assert(total_ == ShiftCost(*seq_, mirror_, options_));
#endif
}

// ---- transition weights ----------------------------------------------------

std::uint32_t CostEvaluator::EdgeFor(DbcData& data, std::uint64_t key) {
  const std::uint32_t slot = data.edge_index.FindOrInsert(
      key, static_cast<std::uint32_t>(data.edges.size()));
  if (slot == data.edges.size()) {
    if (data.edges.Append(key, 0)) ++arena_growths_;
    ++data.dead;  // born a tombstone until a weight write revives it
  }
  return slot;
}

void CostEvaluator::SetEdgeWeight(DbcData& data, std::uint32_t slot,
                                  std::uint64_t weight) {
  const bool was_dead = data.edges.weights[slot] == 0;
  data.edges.weights[slot] = weight;
  const bool is_dead = weight == 0;
  if (was_dead && !is_dead) {
    --data.dead;
  } else if (!was_dead && is_dead) {
    ++data.dead;
  }
}

void CostEvaluator::AddWeight(std::uint32_t dbc, VariableId u, VariableId v,
                              std::int64_t delta) {
  DbcData& data = dbcs_[dbc];
  const std::uint64_t key = PackPair(u, v);
  const std::uint32_t slot = EdgeFor(data, key);
  const std::uint64_t old_weight = data.edges.weights[slot];
  if (log_weights_) weight_log_.push_back({dbc, key, old_weight});
  SetEdgeWeight(data, slot,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(old_weight) + delta));
}

void CostEvaluator::SpliceOutAll(std::uint32_t dbc, VariableId v,
                                 bool save_links, bool update_weights) {
  DbcData& data = dbcs_[dbc];
  for (const std::uint32_t t : PositionsOf(v)) {
    const std::uint32_t p = prev_[t];
    const std::uint32_t n = next_[t];
    if (save_links) links_arena_.emplace_back(p, n);
    if (update_weights) {
      if (p != kNoPosition) AddWeight(dbc, var_of_[p], v, -1);
      if (n != kNoPosition) AddWeight(dbc, v, var_of_[n], -1);
      if (p != kNoPosition && n != kNoPosition) {
        AddWeight(dbc, var_of_[p], var_of_[n], +1);
      }
    }
    if (p != kNoPosition) next_[p] = n; else data.head = n;
    if (n != kNoPosition) prev_[n] = p; else data.tail = p;
  }
  data.count -= FreqOf(v);
}

void CostEvaluator::SpliceInAll(std::uint32_t dbc, VariableId v,
                                bool update_weights) {
  DbcData& data = dbcs_[dbc];
  // Merge v's (ascending) occurrences into the DBC's ascending chain; the
  // cursor never backs up, so the whole batch costs one chain walk.
  std::uint32_t after = kNoPosition;   // last chain node with position < t
  std::uint32_t before = data.head;    // first chain node with position > t
  for (const std::uint32_t t : PositionsOf(v)) {
    while (before != kNoPosition && before < t) {
      after = before;
      before = next_[before];
    }
    if (update_weights) {
      if (after != kNoPosition && before != kNoPosition) {
        AddWeight(dbc, var_of_[after], var_of_[before], -1);
      }
      if (after != kNoPosition) AddWeight(dbc, var_of_[after], v, +1);
      if (before != kNoPosition) AddWeight(dbc, v, var_of_[before], +1);
    }
    prev_[t] = after;
    next_[t] = before;
    if (after != kNoPosition) next_[after] = t; else data.head = t;
    if (before != kNoPosition) prev_[before] = t; else data.tail = t;
    after = t;
  }
  data.count += FreqOf(v);
}

void CostEvaluator::RebuildDbcWeights(std::uint32_t dbc) {
  DbcData& data = dbcs_[dbc];
  data.edges.clear();
  data.edge_index.Clear();
  data.dead = 0;
  const auto& members = mirror_.dbc(dbc);
  const std::size_t n = members.size();
  // Dense path: offsets are ready-made local ids, so pair counting is two
  // array reads and one increment per chain node, and the harvest touches
  // n^2 cells. Worth it whenever that beats hashing every chain node.
  if (n >= 2 && n * n <= 2 * data.count) {
    matrix_scratch_.assign(n * n, 0);
    for (std::uint32_t offset = 0; offset < n; ++offset) {
      offset_scratch_[members[offset]] = offset;
    }
    std::uint32_t t = data.head;
    while (t != kNoPosition && next_[t] != kNoPosition) {
      ++matrix_scratch_[offset_scratch_[var_of_[t]] * n +
                        offset_scratch_[var_of_[next_[t]]]];
      t = next_[t];
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        std::uint64_t weight = matrix_scratch_[i * n + j];
        if (j != i) weight += matrix_scratch_[j * n + i];
        if (weight == 0) continue;
        const std::uint64_t key = PackPair(members[i], members[j]);
        (void)data.edge_index.FindOrInsert(
            key, static_cast<std::uint32_t>(data.edges.size()));
        if (data.edges.Append(key, weight)) ++arena_growths_;
      }
    }
    return;
  }
  const bool was_logging = log_weights_;
  log_weights_ = false;  // a wholesale rebuild is undone from its snapshot
  for (std::uint32_t t = data.head; t != kNoPosition; t = next_[t]) {
    if (next_[t] != kNoPosition) {
      AddWeight(dbc, var_of_[t], var_of_[next_[t]], +1);
    }
  }
  log_weights_ = was_logging;
}

void CostEvaluator::UnlinkAll(DbcData& data, VariableId v) {
  for (const std::uint32_t t : PositionsOf(v)) {
    const std::uint32_t p = prev_[t];
    const std::uint32_t n = next_[t];
    if (p != kNoPosition) next_[p] = n; else data.head = n;
    if (n != kNoPosition) prev_[n] = p; else data.tail = p;
  }
  data.count -= FreqOf(v);
}

void CostEvaluator::RelinkAll(DbcData& data, VariableId v,
                              std::size_t links_begin) {
  // Exact inverse of SpliceOutAll's link surgery: relink in reverse order
  // so each occurrence finds the neighbors its saved pair names in place.
  const std::span<const std::uint32_t> positions = PositionsOf(v);
  for (std::size_t i = positions.size(); i-- > 0;) {
    const std::uint32_t t = positions[i];
    const auto [p, n] = links_arena_[links_begin + i];
    prev_[t] = p;
    next_[t] = n;
    if (p != kNoPosition) next_[p] = t; else data.head = t;
    if (n != kNoPosition) prev_[n] = t; else data.tail = t;
  }
  data.count += FreqOf(v);
}

void CostEvaluator::RepriceDbc(std::uint32_t d) {
  DbcData& data = dbcs_[d];
  // Compact when tombstones outnumber live edges (amortized O(1)). Safe
  // mid-chain: undo state references edges by key, never by slot. The
  // parallel SoA arrays compact in lockstep.
  if (data.dead > 16 && data.dead * 2 > data.edges.size()) {
    std::size_t write = 0;
    for (std::size_t i = 0; i < data.edges.size(); ++i) {
      if (data.edges.weights[i] == 0) continue;
      data.edges.keys[write] = data.edges.keys[i];
      data.edges.us[write] = data.edges.us[i];
      data.edges.vs[write] = data.edges.vs[i];
      data.edges.weights[write] = data.edges.weights[i];
      ++write;
    }
    data.edges.keys.resize(write);
    data.edges.us.resize(write);
    data.edges.vs.resize(write);
    data.edges.weights.resize(write);
    data.dead = 0;
    data.edge_index.Clear();
    for (std::size_t i = 0; i < data.edges.size(); ++i) {
      (void)data.edge_index.FindOrInsert(data.edges.keys[i],
                                         static_cast<std::uint32_t>(i));
    }
  }
  // Dense per-variable offsets: one unchecked read per edge endpoint
  // instead of a checked SlotOf. Only this DBC's entries are refreshed;
  // every live edge endpoint is a member. Tombstone endpoints may read a
  // stale entry, but their weight is zero, so they contribute nothing.
  const auto& members = mirror_.dbc(d);
  for (std::uint32_t offset = 0; offset < members.size(); ++offset) {
    offset_scratch_[members[offset]] = offset;
  }
  std::uint64_t cost = PriceDbcEdgesAll(data);
  if (first_pays_ && data.head != kNoPosition) {
    cost += PortDistance(offset_scratch_[var_of_[data.head]], port_);
  }
  data.cost = cost;
}

void CostEvaluator::RebuildLinks() {
  for (DbcData& data : dbcs_) {
    data.head = kNoPosition;
    data.tail = kNoPosition;
    data.count = 0;
  }
  for (std::uint32_t t = 0; t < var_of_.size(); ++t) {
    DbcData& data = dbcs_[mirror_.SlotOf(var_of_[t]).dbc];
    prev_[t] = data.tail;
    next_[t] = kNoPosition;
    if (data.tail != kNoPosition) next_[data.tail] = t; else data.head = t;
    data.tail = t;
    ++data.count;
  }
  links_valid_ = true;
}

void CostEvaluator::RebuildWeights() {
  if (!links_valid_) RebuildLinks();
  for (std::uint32_t d = 0; d < dbcs_.size(); ++d) {
    RebuildDbcWeights(d);
  }
  weights_valid_ = true;
}

void CostEvaluator::RecomputeMultiPort() {
  const auto per_dbc = PerDbcShiftCost(*seq_, mirror_, options_);
  for (std::uint32_t d = 0; d < per_dbc.size(); ++d) {
    dbcs_[d].cost = per_dbc[d];
  }
}

// ---- binding ---------------------------------------------------------------

inline std::uint64_t CostEvaluator::AccessShifts(std::int64_t& last,
                                                 std::uint32_t offset) const {
  std::uint64_t shifts = 0;
  if (last == kNoAccess) {
    if (first_pays_) shifts = PortDistance(offset, port_);
  } else {
    shifts = static_cast<std::uint64_t>(
        std::llabs(static_cast<std::int64_t>(offset) - last));
  }
  last = static_cast<std::int64_t>(offset);
  return shifts;
}

void CostEvaluator::RebuildAll(const Placement& placement, bool with_weights) {
  ValidateAgainstDomains(placement, options_);
  bound_ = false;  // basic guarantee: a throwing rebuild leaves us unbound
  // A placement may declare more variables than the sequence accesses
  // (ShiftCost accepts that); grow the per-variable tables so the extra
  // ids index safely. Their CSR position ranges stay empty (trailing
  // pos_begin_ entries all point at the arena end): never accessed.
  if (placement.num_variables() > NumVars()) {
    pos_begin_.resize(placement.num_variables() + 1,
                      static_cast<std::uint32_t>(pos_data_.size()));
    offset_scratch_.resize(placement.num_variables(), 0);
  }
  mirror_ = placement;
  dbcs_.resize(placement.num_dbcs());
  for (DbcData& data : dbcs_) {
    data.head = kNoPosition;
    data.tail = kNoPosition;
    data.count = 0;
    data.edges.clear();
    data.edge_index.Clear();
    data.dead = 0;
    data.cost = 0;
  }
  if (!single_port_) {
    // DbcState replay path: bit-identical by construction.
    RecomputeMultiPort();
  } else {
    last_off_scratch_.assign(dbcs_.size(), kNoAccess);
    std::vector<std::int64_t>& last_off = last_off_scratch_;
    for (std::uint32_t t = 0; t < var_of_.size(); ++t) {
      const VariableId v = var_of_[t];
      const Slot slot = placement.SlotOf(v);  // throws if unplaced
      DbcData& data = dbcs_[slot.dbc];
      if (with_weights) {
        // Thread the chain links; without weights they stay stale and the
        // first chain consumer runs RebuildLinks.
        prev_[t] = data.tail;
        next_[t] = kNoPosition;
        if (data.tail != kNoPosition) next_[data.tail] = t; else data.head = t;
        data.tail = t;
        ++data.count;
        if (prev_[t] != kNoPosition) {
          AddWeight(slot.dbc, var_of_[prev_[t]], v, +1);
        }
      }
      data.cost += AccessShifts(last_off[slot.dbc], slot.offset);
    }
  }
  links_valid_ = single_port_ && with_weights;
  weights_valid_ = single_port_ && with_weights;
  total_ = TotalFromDbcs();
  bound_ = true;
  undo_.clear();
  links_arena_.clear();
  weight_log_.clear();
  AssertMatchesShiftCost();
}

void CostEvaluator::Bind(const Placement& placement) {
  RebuildAll(placement, /*with_weights=*/true);
}

std::uint64_t CostEvaluator::Evaluate(const Placement& placement) {
  if (!bound_ || !single_port_ ||
      mirror_.num_dbcs() != placement.num_dbcs() ||
      mirror_.num_variables() != placement.num_variables()) {
    RebuildAll(placement, /*with_weights=*/false);
    return total_;
  }
  ValidateAgainstDomains(placement, options_);

  // Diff against the bound placement: accessed variables that changed DBC
  // (weight splices) and DBCs whose list changed at all (re-pricing).
  std::vector<VariableId> moved;
  std::uint64_t moved_positions = 0;
  for (VariableId v = 0; v < NumVars(); ++v) {
    if (FreqOf(v) == 0) continue;  // unaccessed: never costs
    if (!placement.IsPlaced(v)) {
      throw std::logic_error("Placement: variable is unplaced");
    }
    if (mirror_.SlotOf(v).dbc != placement.SlotOf(v).dbc) {
      moved.push_back(v);
      moved_positions += FreqOf(v);
    }
  }
  std::vector<std::uint32_t> dirty;
  for (std::uint32_t d = 0; d < dbcs_.size(); ++d) {
    if (placement.dbc(d) != mirror_.dbc(d)) dirty.push_back(d);
  }
  if (dirty.empty()) {  // identical lists: nothing to re-price
    mirror_ = placement;
    undo_.clear();
    links_arena_.clear();
    weight_log_.clear();
    return total_;
  }
  // Large diffs (unrelated candidates, such as a GA's random initial
  // population): one flat SinglePortCosts-style pass beats splicing, and
  // skipping the weight rebuild keeps it exactly that pass. Small diffs
  // with stale weights (first diff after such a pass): rebuild once, with
  // weights, and return to the incremental path.
  if (!weights_valid_ || moved_positions * 4 >= var_of_.size()) {
    RebuildAll(placement, moved_positions * 4 < var_of_.size());
    return total_;
  }
  for (const VariableId v : moved) {
    SpliceOutAll(mirror_.SlotOf(v).dbc, v, /*save_links=*/false,
                 /*update_weights=*/true);
    SpliceInAll(placement.SlotOf(v).dbc, v, /*update_weights=*/true);
  }
  mirror_ = placement;
  for (const std::uint32_t d : dirty) RepriceDbc(d);
  total_ = TotalFromDbcs();
  undo_.clear();
  links_arena_.clear();
  weight_log_.clear();
  AssertMatchesShiftCost();
  return total_;
}

std::uint64_t CostEvaluator::ScoreSlots(std::span<const Slot> slots,
                                        std::span<const std::uint32_t> fill) {
  if (!single_port_) {
    throw std::logic_error("CostEvaluator::ScoreSlots: single-port only");
  }
  if (slots.size() < seq_->num_variables()) {
    throw std::invalid_argument("CostEvaluator::ScoreSlots: missing slots");
  }
  if (options_.domains_per_dbc != 0) {
    // ValidateAgainstDomains' depth check (the constructor already
    // checked the ports against the depth).
    for (const std::uint32_t depth : fill) {
      if (depth > options_.domains_per_dbc) {
        throw std::invalid_argument("cost model: placement deeper than DBC");
      }
    }
  }
  if (run_vars_.empty() && !var_of_.empty()) {
    // First call: drop consecutive repeats. A repeat faces the offset its
    // run start left in `last`, so it costs 0 and moves nothing.
    std::unique_copy(var_of_.begin(), var_of_.end(),
                     std::back_inserter(run_vars_));
    run_vars_.shrink_to_fit();
  }
  last_off_scratch_.assign(fill.size(), kNoAccess);
  std::int64_t* const last_off = last_off_scratch_.data();
  const Slot* const slot_of = slots.data();
  std::uint64_t total = 0;
  for (const VariableId v : run_vars_) {
    const Slot slot = slot_of[v];
    assert(slot.dbc < fill.size());
    total += AccessShifts(last_off[slot.dbc], slot.offset);
  }
  return total;
}

std::uint64_t CostEvaluator::Cost() const {
  RequireBound();
  return total_;
}

const Placement& CostEvaluator::placement() const {
  RequireBound();
  return mirror_;
}

// ---- trial scoring ---------------------------------------------------------

std::uint64_t CostEvaluator::PriceDbcEdgesAll(const DbcData& data) const {
  // The hot scan: no tombstone test (weight 0 prices to zero — a stale
  // offset read stays in bounds, offset_scratch_ covers every variable),
  // no key unpacking, no branches. Plain index arithmetic over four
  // parallel arrays that the compiler auto-vectorizes.
  const std::size_t n = data.edges.size();
  const std::uint32_t* const us = data.edges.us.data();
  const std::uint32_t* const vs = data.edges.vs.data();
  const std::uint64_t* const ws = data.edges.weights.data();
  const std::uint32_t* const offsets = offset_scratch_.data();
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = offsets[us[i]];
    const std::uint32_t b = offsets[vs[i]];
    cost += ws[i] * (std::max(a, b) - std::min(a, b));
  }
  return cost;
}

std::uint64_t CostEvaluator::PriceDbcEdgesExcluding(
    const DbcData& data, VariableId excluded) const {
  // PeekMove's from-side: same scan, with edges incident to the departing
  // variable masked out arithmetically (keep = 0/1) instead of branched.
  const std::size_t n = data.edges.size();
  const std::uint32_t* const us = data.edges.us.data();
  const std::uint32_t* const vs = data.edges.vs.data();
  const std::uint64_t* const ws = data.edges.weights.data();
  const std::uint32_t* const offsets = offset_scratch_.data();
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t a = offsets[us[i]];
    const std::uint32_t b = offsets[vs[i]];
    const std::uint64_t keep = us[i] != excluded && vs[i] != excluded;
    cost += keep * ws[i] * (std::max(a, b) - std::min(a, b));
  }
  return cost;
}

std::uint64_t CostEvaluator::PeekByReplay(const Placement& candidate) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : PerDbcShiftCost(*seq_, candidate, options_)) {
    total += c;
  }
  return total;
}

std::uint64_t CostEvaluator::PeekMove(VariableId v, std::uint32_t dbc) {
  RequireBound();
  const Slot old = mirror_.SlotOf(v);  // throws if unplaced
  if (dbc >= mirror_.num_dbcs()) {
    throw std::invalid_argument("Placement: DBC index out of range");
  }
  if (dbc != old.dbc && mirror_.capacity() != kUnboundedCapacity &&
      mirror_.dbc(dbc).size() >= mirror_.capacity()) {
    throw std::invalid_argument("Placement: DBC is full");
  }
  if (options_.domains_per_dbc != 0 && dbc != old.dbc &&
      mirror_.dbc(dbc).size() >= options_.domains_per_dbc) {
    throw std::invalid_argument("CostEvaluator: move deeper than DBC");
  }
  if (!single_port_) {
    Placement candidate = mirror_;
    candidate.MoveToEnd(v, dbc);
    return PeekByReplay(candidate);
  }
  if (!weights_valid_) RebuildWeights();

  if (dbc == old.dbc) {
    // v rotates to its own DBC's end; everything after it shifts down one.
    const auto& members = mirror_.dbc(dbc);
    const auto size = static_cast<std::uint32_t>(members.size());
    for (std::uint32_t offset = 0; offset < size; ++offset) {
      offset_scratch_[members[offset]] =
          offset > old.offset ? offset - 1 : offset;
    }
    offset_scratch_[v] = size - 1;
    const DbcData& data = dbcs_[dbc];
    std::uint64_t new_cost = PriceDbcEdgesAll(data);
    if (first_pays_ && data.head != kNoPosition) {
      new_cost += PortDistance(offset_scratch_[var_of_[data.head]], port_);
    }
    return total_ - data.cost + new_cost;
  }

  const DbcData& from = dbcs_[old.dbc];
  const DbcData& to = dbcs_[dbc];
  const auto& from_members = mirror_.dbc(old.dbc);
  const std::span<const std::uint32_t> occurrences = PositionsOf(v);

  // FROM side: gap-closed offsets, edges incident to v vanish, and each
  // maximal run of v's occurrences welds its outer neighbors together.
  for (const VariableId x : from_members) {
    const std::uint32_t offset = mirror_.SlotOf(x).offset;
    offset_scratch_[x] = offset > old.offset ? offset - 1 : offset;
  }
  std::uint64_t new_from = PriceDbcEdgesExcluding(from, v);
  for (const std::uint32_t t : occurrences) {
    const std::uint32_t p = prev_[t];
    const bool run_start = p == kNoPosition || var_of_[p] != v;
    if (run_start && p != kNoPosition) {
      // Find the run's right boundary only from its start (each run is
      // scanned once; total work stays O(freq(v))).
      std::uint32_t e = t;
      while (next_[e] != kNoPosition && var_of_[next_[e]] == v) {
        e = next_[e];
      }
      if (next_[e] != kNoPosition) {
        new_from += OffsetDistance(offset_scratch_[var_of_[p]],
                                   offset_scratch_[var_of_[next_[e]]]);
      }
    }
  }
  if (first_pays_) {
    std::uint32_t head = from.head;
    while (head != kNoPosition && var_of_[head] == v) head = next_[head];
    if (head != kNoPosition) {
      new_from += PortDistance(offset_scratch_[var_of_[head]], port_);
    }
  }

  // TO side: v lands at the end, nobody else shifts; walk the insertion
  // merge accumulating the new/broken transition prices.
  const auto v_offset = static_cast<std::uint32_t>(mirror_.dbc(dbc).size());
  std::int64_t to_delta = 0;
  std::uint32_t after = kNoPosition;
  bool after_is_v = false;
  std::uint32_t before = to.head;
  bool v_becomes_head = false;
  for (const std::uint32_t t : occurrences) {
    while (before != kNoPosition && before < t) {
      after = before;
      after_is_v = false;
      before = next_[before];
    }
    const std::uint32_t after_off =
        after == kNoPosition
            ? 0
            : (after_is_v ? v_offset
                          : mirror_.SlotOf(var_of_[after]).offset);
    if (after == kNoPosition && (to.head == kNoPosition || t < to.head)) {
      v_becomes_head = true;
    }
    if (before != kNoPosition) {
      const std::uint32_t before_off = mirror_.SlotOf(var_of_[before]).offset;
      if (after != kNoPosition) {
        to_delta -= static_cast<std::int64_t>(
            OffsetDistance(after_off, before_off));
      }
      to_delta += static_cast<std::int64_t>(
          OffsetDistance(v_offset, before_off));
    }
    if (after != kNoPosition) {
      to_delta += static_cast<std::int64_t>(
          OffsetDistance(after_off, v_offset));
    }
    after = t;
    after_is_v = true;
  }
  if (first_pays_ && v_becomes_head) {
    to_delta += static_cast<std::int64_t>(PortDistance(v_offset, port_));
    if (to.head != kNoPosition) {
      to_delta -= static_cast<std::int64_t>(
          PortDistance(mirror_.SlotOf(var_of_[to.head]).offset, port_));
    }
  }

  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(total_ - from.cost + new_from) + to_delta);
}

// ---- incremental edits -----------------------------------------------------

std::uint64_t CostEvaluator::ApplyMove(VariableId v, std::uint32_t dbc) {
  RequireBound();
  const Slot old = mirror_.SlotOf(v);  // throws if unplaced
  if (options_.domains_per_dbc != 0 && dbc != old.dbc &&
      dbc < mirror_.num_dbcs() &&
      mirror_.dbc(dbc).size() >= options_.domains_per_dbc) {
    throw std::invalid_argument("CostEvaluator: move deeper than DBC");
  }
  if (single_port_ && !weights_valid_) RebuildWeights();
  mirror_.MoveToEnd(v, dbc);  // validates target index and capacity
  UndoRecord rec;  // costs unchanged so far: the mirror edit is cost-free
  rec.v = v;
  rec.from_dbc = old.dbc;
  rec.from_offset = old.offset;
  rec.dbc = dbc;
  rec.links_begin = links_arena_.size();
  rec.log_begin = weight_log_.size();
  rec.from_cost = dbcs_[old.dbc].cost;
  rec.to_cost = dbcs_[dbc].cost;
  if (!single_port_) {
    RecomputeMultiPort();
  } else {
    if (old.dbc != dbc) {
      // A splice touches ~3 weights per occurrence; a wholesale rebuild
      // touches one per remaining chain node. For high-frequency
      // variables the rebuild wins — and bounds the cost of any move by
      // the chain length, splice-mode by 3 * freq(v).
      const std::size_t freq = FreqOf(v);
      const std::size_t from_chain = dbcs_[old.dbc].count - freq;
      const std::size_t to_chain = dbcs_[dbc].count + freq;
      rec.from_rebuilt = 3 * freq > from_chain;
      rec.to_rebuilt = 3 * freq > to_chain;
      if (rec.from_rebuilt) {
        rec.from_snap = dbcs_[old.dbc].edges;
        rec.from_index_snap = dbcs_[old.dbc].edge_index;
        rec.from_dead_snap = dbcs_[old.dbc].dead;
      }
      if (rec.to_rebuilt) {
        rec.to_snap = dbcs_[dbc].edges;
        rec.to_index_snap = dbcs_[dbc].edge_index;
        rec.to_dead_snap = dbcs_[dbc].dead;
      }
      log_weights_ = true;
      SpliceOutAll(old.dbc, v, /*save_links=*/true,
                   /*update_weights=*/!rec.from_rebuilt);
      SpliceInAll(dbc, v, /*update_weights=*/!rec.to_rebuilt);
      log_weights_ = false;
      if (rec.from_rebuilt) RebuildDbcWeights(old.dbc);
      if (rec.to_rebuilt) RebuildDbcWeights(dbc);
      RepriceDbc(old.dbc);
    }
    RepriceDbc(dbc);
  }
  undo_.push_back(std::move(rec));
  total_ = TotalFromDbcs();
  AssertMatchesShiftCost();
  return total_;
}

void CostEvaluator::Undo() {
  RequireBound();
  if (undo_.empty()) {
    throw std::logic_error("CostEvaluator: nothing to undo");
  }
  UndoRecord rec = std::move(undo_.back());
  undo_.pop_back();
  // The record carries the touched DBCs' pre-edit costs, so undo restores
  // them directly: no re-pricing (and no multi-port replay) on this path.
  // v sits at the end of rec.dbc; return it to rec.from_dbc at
  // rec.from_offset. LIFO undo guarantees the slot is free again.
  // Bubbling v back avoids Reorder's permutation-check sorts.
  mirror_.MoveToEnd(rec.v, rec.from_dbc);
  for (std::size_t k = mirror_.dbc(rec.from_dbc).size() - 1;
       k > rec.from_offset; --k) {
    mirror_.Transpose(rec.from_dbc, k, k - 1);
  }
  if (single_port_ && rec.dbc != rec.from_dbc) {
    UnlinkAll(dbcs_[rec.dbc], rec.v);
    RelinkAll(dbcs_[rec.from_dbc], rec.v, rec.links_begin);
    links_arena_.resize(rec.links_begin);
    // Splice-mode DBCs: replay their weight-log slice backwards.
    // Key-addressed, so edges the apply appended simply revert to
    // tombstones (logged old weight 0) wherever they now live.
    for (std::size_t i = weight_log_.size(); i-- > rec.log_begin;) {
      const WeightEdit& edit = weight_log_[i];
      DbcData& data = dbcs_[edit.dbc];
      SetEdgeWeight(data, EdgeFor(data, edit.key), edit.old_weight);
    }
    weight_log_.resize(rec.log_begin);
    // Rebuild-mode DBCs: swap the snapshotted pre-edit state back in.
    if (rec.from_rebuilt) {
      dbcs_[rec.from_dbc].edges = std::move(rec.from_snap);
      dbcs_[rec.from_dbc].edge_index = std::move(rec.from_index_snap);
      dbcs_[rec.from_dbc].dead = rec.from_dead_snap;
    }
    if (rec.to_rebuilt) {
      dbcs_[rec.dbc].edges = std::move(rec.to_snap);
      dbcs_[rec.dbc].edge_index = std::move(rec.to_index_snap);
      dbcs_[rec.dbc].dead = rec.to_dead_snap;
    }
  }
  dbcs_[rec.from_dbc].cost = rec.from_cost;
  dbcs_[rec.dbc].cost = rec.to_cost;
  total_ = TotalFromDbcs();
  AssertMatchesShiftCost();
}

}  // namespace rtmp::core
