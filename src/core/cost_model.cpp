#include "core/cost_model.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace rtmp::core {

namespace {

/// Each DBC's last offset for one walk, on the stack for up to 64 DBCs:
/// pricing a placement allocates nothing.
class LastOffsets {
 public:
  explicit LastOffsets(std::size_t num_dbcs) {
    if (num_dbcs > stack_.size()) {
      heap_.resize(num_dbcs);
      view_ = heap_;
    } else {
      view_ = std::span<std::int64_t>(stack_.data(), num_dbcs);
    }
    std::fill(view_.begin(), view_.end(), kNoAccess);
  }
  LastOffsets(const LastOffsets&) = delete;
  LastOffsets& operator=(const LastOffsets&) = delete;

  [[nodiscard]] std::span<std::int64_t> span() const noexcept {
    return view_;
  }

 private:
  std::array<std::int64_t, 64> stack_;
  std::vector<std::int64_t> heap_;
  std::span<std::int64_t> view_;
};

/// The cold path of ShiftCostOfSlots' slot read.
[[noreturn]] void ThrowBadSlot(bool missing) {
  if (missing) {
    throw std::invalid_argument("ShiftCostOfSlots: missing slots");
  }
  throw std::logic_error("Placement: variable is unplaced");
}

/// Reads an access's slot from a Placement (throws if unplaced).
auto PlacementSlots(const Placement& placement) {
  return [&placement](const trace::Access& access) {
    return placement.SlotOf(access.variable);
  };
}

}  // namespace

std::vector<std::uint64_t> PerDbcShiftCost(const trace::AccessSequence& seq,
                                           const Placement& placement,
                                           const CostOptions& options) {
  std::vector<std::uint64_t> per_dbc(placement.num_dbcs(), 0);
  std::vector<std::int64_t> last(placement.num_dbcs(), kNoAccess);
  SinglePortWalk(seq.accesses(), PlacementSlots(placement),
                 SinglePortStep(options), last,
                 [&per_dbc](std::uint32_t dbc, std::uint64_t shifts) {
                   per_dbc[dbc] += shifts;
                 });
  return per_dbc;
}

std::vector<std::uint64_t> MultiPortShiftCost(
    const trace::AccessSequence& seq, const Placement& placement,
    std::span<const std::uint32_t> ports, const CostOptions& options) {
  if (ports.empty()) {
    throw std::invalid_argument("MultiPortShiftCost: need at least one port");
  }
  const bool start_at_zero =
      options.initial_alignment == rtm::InitialAlignment::kZero;
  std::vector<std::int64_t> alignment(placement.num_dbcs(), 0);
  std::vector<std::uint8_t> aligned(placement.num_dbcs(),
                                    start_at_zero ? 1 : 0);
  std::vector<std::uint64_t> per_dbc(placement.num_dbcs(), 0);
  for (const trace::Access& access : seq.accesses()) {
    const Slot slot = placement.SlotOf(access.variable);
    const auto pos = static_cast<std::int64_t>(slot.offset);
    std::int64_t& current = alignment[slot.dbc];
    if (aligned[slot.dbc] == 0) {
      aligned[slot.dbc] = 1;
      current = pos - ports.front();
      continue;
    }
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::int64_t best_alignment = current;
    for (const std::uint32_t port : ports) {
      const std::int64_t target = pos - port;
      const auto shifts =
          static_cast<std::uint64_t>(std::llabs(current - target));
      if (shifts < best) {
        best = shifts;
        best_alignment = target;
      }
    }
    per_dbc[slot.dbc] += best;
    current = best_alignment;
  }
  return per_dbc;
}

std::uint64_t ShiftCost(const trace::AccessSequence& seq,
                        const Placement& placement,
                        const CostOptions& options) {
  std::uint64_t total = 0;
  const LastOffsets last(placement.num_dbcs());
  SinglePortWalk(seq.accesses(), PlacementSlots(placement),
                 SinglePortStep(options), last.span(),
                 [&total](std::uint32_t, std::uint64_t shifts) {
                   total += shifts;
                 });
  return total;
}

void AccessRuns(std::span<const trace::Access> accesses,
                std::vector<VariableId>& runs) {
  runs.clear();
  for (const trace::Access& access : accesses) {
    if (runs.empty() || runs.back() != access.variable) {
      runs.push_back(access.variable);
    }
  }
}

std::uint64_t ShiftCostOfSlots(std::span<const VariableId> runs,
                               std::span<const Slot> slots,
                               std::uint32_t num_dbcs,
                               const CostOptions& options) {
  const LastOffsets last(num_dbcs);
  std::uint64_t total = 0;
  SinglePortWalk(
      runs,
      [slots, num_dbcs](VariableId v) {
        if (v >= slots.size()) ThrowBadSlot(/*missing=*/true);
        const Slot slot = slots[v];
        if (slot.dbc >= num_dbcs) ThrowBadSlot(/*missing=*/false);
        return slot;
      },
      SinglePortStep(options), last.span(),
      [&total](std::uint32_t, std::uint64_t shifts) { total += shifts; });
  return total;
}

}  // namespace rtmp::core
