#include "core/placement.h"

#include <algorithm>
#include <stdexcept>

namespace rtmp::core {

Placement::Placement(std::size_t num_variables, std::uint32_t num_dbcs,
                     std::uint32_t capacity)
    : lists_(num_dbcs),
      slots_(num_variables, Slot{kUnplacedDbc, 0}),
      capacity_(capacity) {
  if (num_dbcs == 0) {
    throw std::invalid_argument("Placement: need at least one DBC");
  }
  if (capacity == 0) {
    throw std::invalid_argument("Placement: capacity must be positive");
  }
  const std::size_t room = std::min<std::size_t>(capacity, num_variables);
  for (std::vector<VariableId>& list : lists_) list.reserve(room);
}

Placement Placement::FromLists(std::vector<std::vector<VariableId>> lists,
                               std::size_t num_variables,
                               std::uint32_t capacity) {
  Placement p(num_variables, static_cast<std::uint32_t>(lists.size()),
              capacity);
  for (std::uint32_t d = 0; d < lists.size(); ++d) {
    for (const VariableId v : lists[d]) {
      p.Append(d, v);  // Append performs all validity checks
    }
  }
  return p;
}

void Placement::ThrowBadSlot(VariableId v) const {
  (void)slots_.at(v);  // the library's own out_of_range, as before
  throw std::logic_error("Placement: variable is unplaced");
}

void Placement::ThrowBadDbc(std::uint32_t dbc) const {
  (void)lists_.at(dbc);  // the library's own out_of_range, as before
  throw std::out_of_range("Placement: DBC index out of range");
}

void Placement::ThrowBadAppend(std::uint32_t dbc, VariableId v) const {
  if (v >= slots_.size()) {
    throw std::invalid_argument("Placement: variable id out of range");
  }
  if (slots_[v].dbc != kUnplacedDbc) {
    throw std::invalid_argument("Placement: variable already placed");
  }
  (void)lists_.at(dbc);  // std::out_of_range for a DBC outside the range
  throw std::invalid_argument("Placement: DBC is full");
}

void Placement::CheckInvariants() const {
  std::size_t placed = 0;
  std::vector<bool> seen(slots_.size(), false);
  for (std::uint32_t d = 0; d < lists_.size(); ++d) {
    if (capacity_ != kUnboundedCapacity && lists_[d].size() > capacity_) {
      throw std::logic_error("Placement invariant: DBC over capacity");
    }
    for (std::size_t offset = 0; offset < lists_[d].size(); ++offset) {
      const VariableId v = lists_[d][offset];
      if (v >= slots_.size()) {
        throw std::logic_error("Placement invariant: variable id out of range");
      }
      if (seen[v]) {
        throw std::logic_error("Placement invariant: variable placed twice");
      }
      seen[v] = true;
      if (slots_[v].dbc != d || slots_[v].offset != offset) {
        throw std::logic_error("Placement invariant: index out of sync");
      }
      ++placed;
    }
  }
  if (placed != placed_count_) {
    throw std::logic_error("Placement invariant: placed count out of sync");
  }
  for (std::size_t v = 0; v < slots_.size(); ++v) {
    if (slots_[v].dbc != kUnplacedDbc && !seen[v]) {
      throw std::logic_error("Placement invariant: stale slot entry");
    }
  }
}

void Placement::Remove(VariableId v) {
  const Slot slot = SlotOf(v);
  auto& list = lists_[slot.dbc];
  list.erase(list.begin() + slot.offset);
  slots_[v] = Slot{kUnplacedDbc, 0};
  --placed_count_;
  ReindexFrom(slot.dbc, slot.offset);
}

void Placement::MoveToEnd(VariableId v, std::uint32_t dbc) {
  if (dbc >= lists_.size()) {
    throw std::invalid_argument("Placement: DBC index out of range");
  }
  const Slot slot = SlotOf(v);  // throws if unplaced
  // Strong exception safety: verify the target has room BEFORE removing v
  // (moving within the same DBC always fits — v frees its own slot).
  if (slot.dbc != dbc && capacity_ != kUnboundedCapacity &&
      lists_[dbc].size() >= capacity_) {
    throw std::invalid_argument("Placement: DBC is full");
  }
  Remove(v);
  Append(dbc, v);
}

void Placement::Transpose(std::uint32_t dbc, std::size_t i, std::size_t j) {
  auto& list = lists_.at(dbc);
  if (i >= list.size() || j >= list.size()) {
    throw std::out_of_range("Placement: transpose position out of range");
  }
  std::swap(list[i], list[j]);
  slots_[list[i]].offset = static_cast<std::uint32_t>(i);
  slots_[list[j]].offset = static_cast<std::uint32_t>(j);
}

void Placement::Reorder(std::uint32_t dbc,
                        std::span<const VariableId> order) {
  auto& list = lists_.at(dbc);
  if (order.size() != list.size()) {
    throw std::invalid_argument("Placement: reorder size mismatch");
  }
  // `order` is a permutation of the list iff every entry is a variable of
  // this DBC and none repeats (the sizes match). Each entry is marked seen
  // by unplacing its slot, so a repeat fails the DBC test; on failure the
  // marks are undone and the placement is unchanged.
  for (std::size_t i = 0; i < order.size(); ++i) {
    const VariableId v = order[i];
    if (v >= slots_.size() || slots_[v].dbc != dbc) {
      for (std::size_t j = 0; j < i; ++j) slots_[order[j]].dbc = dbc;
      throw std::invalid_argument("Placement: reorder is not a permutation");
    }
    slots_[v].dbc = kUnplacedDbc;
  }
  list.assign(order.begin(), order.end());
  ReindexFrom(dbc, 0);
}

void Placement::ReindexFrom(std::uint32_t dbc, std::size_t start_offset) {
  const auto& list = lists_[dbc];
  for (std::size_t offset = start_offset; offset < list.size(); ++offset) {
    slots_[list[offset]] = Slot{dbc, static_cast<std::uint32_t>(offset)};
  }
}

}  // namespace rtmp::core
