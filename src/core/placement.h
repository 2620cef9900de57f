// Placement: the decision variable of every strategy in the paper.
//
// A placement assigns each program variable a DBC and an offset inside it.
// Offsets are implied by order: DBC i holds an ordered list of variables,
// the j-th list entry sitting at offset j. This matches the paper's GA
// individual representation I = (DBC_1, ..., DBC_q), each DBC_i an ordered
// variable list, and makes the GA operators (move/transpose/permute/swap)
// structure-preserving by construction.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "trace/access_sequence.h"

namespace rtmp::core {

using trace::VariableId;

/// A variable's location.
struct Slot {
  std::uint32_t dbc = 0;
  std::uint32_t offset = 0;

  friend bool operator==(const Slot&, const Slot&) = default;
};

/// Capacity value meaning "no per-DBC limit".
inline constexpr std::uint32_t kUnboundedCapacity =
    std::numeric_limits<std::uint32_t>::max();

class Placement {
 public:
  /// An empty placement of `num_variables` variables over `num_dbcs` DBCs,
  /// each holding at most `capacity` variables. Each DBC list reserves
  /// min(capacity, num_variables) entries, so filling it never regrows.
  Placement(std::size_t num_variables, std::uint32_t num_dbcs,
            std::uint32_t capacity = kUnboundedCapacity);

  /// Adopts explicit per-DBC lists. Throws std::invalid_argument if any
  /// variable appears twice, an id is out of range, or a list exceeds
  /// `capacity`. Variables absent from every list remain unplaced.
  [[nodiscard]] static Placement FromLists(
      std::vector<std::vector<VariableId>> lists, std::size_t num_variables,
      std::uint32_t capacity = kUnboundedCapacity);

  // -- queries ------------------------------------------------------------

  [[nodiscard]] std::size_t num_variables() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::uint32_t num_dbcs() const noexcept {
    return static_cast<std::uint32_t>(lists_.size());
  }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] const std::vector<VariableId>& dbc(std::uint32_t i) const {
    return lists_.at(i);
  }

  /// Throws std::out_of_range for an id outside the variable space.
  [[nodiscard]] bool IsPlaced(VariableId v) const {
    if (v >= slots_.size()) ThrowBadSlot(v);
    return slots_[v].dbc != kUnplacedDbc;
  }

  /// Location of a placed variable; throws std::logic_error if unplaced
  /// and std::out_of_range for an id outside the variable space.
  [[nodiscard]] Slot SlotOf(VariableId v) const {
    if (v >= slots_.size() || slots_[v].dbc == kUnplacedDbc) ThrowBadSlot(v);
    return slots_[v];
  }

  /// Every variable's slot, indexed by id; an unplaced variable's DBC is
  /// at least num_dbcs(). This is the flat form ShiftCostOfSlots reads.
  [[nodiscard]] std::span<const Slot> slots() const noexcept {
    return slots_;
  }

  /// True when every variable is placed.
  [[nodiscard]] bool IsComplete() const noexcept {
    return placed_count_ == slots_.size();
  }

  [[nodiscard]] std::size_t placed_count() const noexcept {
    return placed_count_;
  }

  /// Number of free slots in DBC i (kUnboundedCapacity when unlimited).
  /// Throws std::out_of_range for i >= num_dbcs().
  [[nodiscard]] std::uint32_t FreeIn(std::uint32_t i) const {
    if (i >= lists_.size()) ThrowBadDbc(i);
    if (capacity_ == kUnboundedCapacity) return kUnboundedCapacity;
    return capacity_ - static_cast<std::uint32_t>(lists_[i].size());
  }

  /// Cross-checks internal index against the lists; throws std::logic_error
  /// on any inconsistency. Intended for tests and debug assertions.
  void CheckInvariants() const;

  // -- mutation (used by heuristics and GA operators) ----------------------

  /// Appends an unplaced variable to DBC `dbc`. Throws
  /// std::invalid_argument if `v` is out of range, already placed or the
  /// DBC is full, and std::out_of_range for dbc >= num_dbcs().
  void Append(std::uint32_t dbc, VariableId v) {
    if (v >= slots_.size() || slots_[v].dbc != kUnplacedDbc ||
        dbc >= lists_.size() ||
        (capacity_ != kUnboundedCapacity && lists_[dbc].size() >= capacity_)) {
      ThrowBadAppend(dbc, v);
    }
    std::vector<VariableId>& list = lists_[dbc];
    slots_[v] = Slot{dbc, static_cast<std::uint32_t>(list.size())};
    list.push_back(v);
    ++placed_count_;
  }

  /// Removes a placed variable (closing its gap). Throws if unplaced.
  void Remove(VariableId v);

  /// Remove + Append in one step (the GA "move" mutation and the crossover
  /// reassignment primitive).
  void MoveToEnd(VariableId v, std::uint32_t dbc);

  /// Swaps the variables at positions i and j of DBC `dbc` (the GA
  /// "transpose" mutation).
  void Transpose(std::uint32_t dbc, std::size_t i, std::size_t j);

  /// Replaces DBC `dbc`'s order with a copy of `order`, which must be a
  /// permutation of the current content and must not view the DBC's own
  /// list (the GA "permute" mutation applies this with a random
  /// permutation). Copies into the list's own storage: no allocation.
  void Reorder(std::uint32_t dbc, std::span<const VariableId> order);

  friend bool operator==(const Placement& a, const Placement& b) {
    return a.capacity_ == b.capacity_ && a.lists_ == b.lists_;
  }

 private:
  static constexpr std::uint32_t kUnplacedDbc =
      std::numeric_limits<std::uint32_t>::max();

  void ReindexFrom(std::uint32_t dbc, std::size_t start_offset);
  /// The cold path of IsPlaced and SlotOf: throws std::out_of_range when
  /// `v` is outside the variable space, else std::logic_error (unplaced).
  [[noreturn]] void ThrowBadSlot(VariableId v) const;
  /// The cold path of FreeIn: the library's std::out_of_range.
  [[noreturn]] void ThrowBadDbc(std::uint32_t dbc) const;
  /// The cold path of Append: throws what the first failing check names,
  /// in the order the checks are documented.
  [[noreturn]] void ThrowBadAppend(std::uint32_t dbc, VariableId v) const;

  std::vector<std::vector<VariableId>> lists_;
  std::vector<Slot> slots_;  // slots_[v].dbc == kUnplacedDbc if unplaced
  std::uint32_t capacity_;
  std::size_t placed_count_ = 0;
};

}  // namespace rtmp::core
