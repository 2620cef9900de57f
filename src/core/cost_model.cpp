#include "core/cost_model.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <span>
#include <stdexcept>

#include "rtm/dbc_state.h"

namespace rtmp::core {

namespace {

constexpr std::int64_t kNoAccess = -1;

/// Fast path: one port. The port's own offset cancels out of every
/// inter-access distance; it only matters for a paid first access, where the
/// cost is the distance from the port (alignment 0) to the variable. Calls
/// `add(dbc, shifts)` per access; `last` holds one entry per DBC, all
/// kNoAccess on entry.
template <typename Add>
void SinglePortWalk(const trace::AccessSequence& seq,
                    const Placement& placement, const CostOptions& options,
                    std::span<std::int64_t> last, Add&& add) {
  const std::int64_t port =
      options.port_offsets.empty() ? 0 : options.port_offsets.front();
  const bool first_pays =
      options.initial_alignment == rtm::InitialAlignment::kZero;
  for (const trace::Access& access : seq.accesses()) {
    const Slot slot = placement.SlotOf(access.variable);
    const auto pos = static_cast<std::int64_t>(slot.offset);
    if (last[slot.dbc] == kNoAccess) {
      if (first_pays) add(slot.dbc, std::llabs(pos - port));
    } else {
      add(slot.dbc, std::llabs(pos - last[slot.dbc]));
    }
    last[slot.dbc] = pos;
  }
}

/// General path: delegate per-DBC alignment tracking to the device model so
/// the analytic cost and the simulator can never diverge.
std::vector<std::uint64_t> MultiPortCosts(const trace::AccessSequence& seq,
                                          const Placement& placement,
                                          const CostOptions& options) {
  std::uint32_t domains = options.domains_per_dbc;
  if (domains == 0) {
    // Derive a bound: offsets are dense, so the longest list suffices.
    std::uint32_t longest = 1;
    for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
      longest = std::max(
          longest, static_cast<std::uint32_t>(placement.dbc(d).size()));
    }
    if (placement.capacity() != kUnboundedCapacity) {
      longest = std::max(longest, placement.capacity());
    }
    for (const std::uint32_t port : options.port_offsets) {
      longest = std::max(longest, port + 1);
    }
    domains = longest;
  }
  const bool start_at_zero =
      options.initial_alignment == rtm::InitialAlignment::kZero;
  std::vector<rtm::DbcState> states;
  states.reserve(placement.num_dbcs());
  for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
    states.emplace_back(domains, options.port_offsets, start_at_zero);
  }
  std::vector<std::uint64_t> per_dbc(placement.num_dbcs(), 0);
  for (const trace::Access& access : seq.accesses()) {
    const Slot slot = placement.SlotOf(access.variable);
    per_dbc[slot.dbc] += states[slot.dbc].Access(slot.offset);
  }
  return per_dbc;
}

}  // namespace

void ValidateAgainstDomains(const Placement& placement,
                            const CostOptions& options) {
  const std::uint32_t domains = options.domains_per_dbc;
  if (domains == 0) return;
  for (std::uint32_t d = 0; d < placement.num_dbcs(); ++d) {
    if (placement.dbc(d).size() > domains) {
      throw std::invalid_argument("cost model: placement deeper than DBC");
    }
  }
  for (const std::uint32_t port : options.port_offsets) {
    if (port >= domains) {
      throw std::invalid_argument("cost model: port offset out of range");
    }
  }
}

std::vector<std::uint64_t> PerDbcShiftCost(const trace::AccessSequence& seq,
                                           const Placement& placement,
                                           const CostOptions& options) {
  if (options.port_offsets.empty()) {
    throw std::invalid_argument("CostOptions: need at least one port");
  }
  ValidateAgainstDomains(placement, options);
  if (options.port_offsets.size() != 1) {
    return MultiPortCosts(seq, placement, options);
  }
  std::vector<std::uint64_t> per_dbc(placement.num_dbcs(), 0);
  std::vector<std::int64_t> last(placement.num_dbcs(), kNoAccess);
  SinglePortWalk(seq, placement, options, last,
                 [&per_dbc](std::uint32_t dbc, std::uint64_t shifts) {
                   per_dbc[dbc] += shifts;
                 });
  return per_dbc;
}

std::uint64_t ShiftCost(const trace::AccessSequence& seq,
                        const Placement& placement,
                        const CostOptions& options) {
  std::uint64_t total = 0;
  if (options.port_offsets.size() != 1) {
    for (const std::uint64_t c : PerDbcShiftCost(seq, placement, options)) {
      total += c;
    }
    return total;
  }
  ValidateAgainstDomains(placement, options);
  // The total needs only each DBC's last offset, kept on the stack for up
  // to kStackDbcs DBCs: pricing a placement allocates nothing.
  constexpr std::size_t kStackDbcs = 64;
  std::array<std::int64_t, kStackDbcs> stack{};
  std::vector<std::int64_t> heap;
  std::span<std::int64_t> last(stack.data(), placement.num_dbcs());
  if (placement.num_dbcs() > kStackDbcs) {
    heap.resize(placement.num_dbcs());
    last = heap;
  }
  std::fill(last.begin(), last.end(), kNoAccess);
  SinglePortWalk(seq, placement, options, last,
                 [&total](std::uint32_t, std::uint64_t shifts) {
                   total += shifts;
                 });
  return total;
}

std::uint64_t WalkCost(std::span<const trace::Access> accesses,
                       std::span<const VariableId> order,
                       std::size_t num_variables, bool first_access_pays) {
  constexpr std::int64_t kUnknown = -1;
  std::vector<std::int64_t> pos(num_variables, kUnknown);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[order[i]] = static_cast<std::int64_t>(i);
  }
  std::uint64_t cost = 0;
  std::int64_t last = kUnknown;
  for (const trace::Access& access : accesses) {
    const std::int64_t p = pos[access.variable];
    if (p == kUnknown) {
      throw std::logic_error("WalkCost: accessed variable not in order");
    }
    if (last == kUnknown) {
      if (first_access_pays) cost += static_cast<std::uint64_t>(p);
    } else {
      cost += static_cast<std::uint64_t>(std::llabs(p - last));
    }
    last = p;
  }
  return cost;
}

}  // namespace rtmp::core
