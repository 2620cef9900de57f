// rtmlint: hot-path — RunSpan is the per-request inner loop of every
// window flush and every sim::Simulate replay; allocations here are
// advisory findings (hot-path-alloc).
#include "rtm/controller.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rtmp::rtm {

namespace {

/// std::max(a, b) for every input, signed zeros and NaNs included (b if
/// a < b, else a), as one branch-free maxsd. GCC turns the hidden-shift
/// clamp's std::max calls into compare-and-branch code, and whether a
/// shift is hidden follows the trace, so those branches mispredict.
inline double BranchFreeMax(double a, double b) {
#if defined(__SSE2__)
  // maxsd(x, y) is x > y ? x : y.
  return _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(b), _mm_set_sd(a)));
#else
  return std::max(a, b);
#endif
}

}  // namespace

RtmController::RtmController(RtmConfig config, ControllerConfig controller)
    : config_(std::move(config)), controller_(controller) {
  config_.Validate();
  const bool start_at_zero =
      config_.initial_alignment == InitialAlignment::kZero;
  const unsigned num_dbcs = config_.total_dbcs();
  alignment_.assign(num_dbcs, 0);
  first_free_.assign(num_dbcs, start_at_zero ? 0 : 1);
  dbc_free_ns_.assign(num_dbcs, 0.0);
}

double RtmController::channel_free() const noexcept {
  return controller_.shared_channel != nullptr
             ? controller_.shared_channel->free_ns_
             : channel_free_ns_;
}

void RtmController::set_channel_free(double when_ns) noexcept {
  if (controller_.shared_channel != nullptr) {
    controller_.shared_channel->free_ns_ = when_ns;
  } else {
    channel_free_ns_ = when_ns;
  }
}

std::vector<RequestTiming> RtmController::Execute(
    const std::vector<TimedRequest>& requests) {
  std::vector<RequestTiming> timings;
  timings.reserve(requests.size());
  ExecuteSpan(requests, &timings);
  return timings;
}

void RtmController::ExecuteBatch(std::span<const TimedRequest> requests) {
  ExecuteSpan(requests, nullptr);
}

void RtmController::ExecuteSpan(std::span<const TimedRequest> requests,
                                std::vector<RequestTiming>* out) {
  if (controller_.proactive_alignment) {
    if (out != nullptr) {
      RunSpan<true, true>(requests, out);
    } else {
      RunSpan<true, false>(requests, out);
    }
  } else if (out != nullptr) {
    RunSpan<false, true>(requests, out);
  } else {
    RunSpan<false, false>(requests, out);
  }
}

template <bool kProactive, bool kRecord>
void RtmController::RunSpan(std::span<const TimedRequest> requests,
                            std::vector<RequestTiming>* out) {
  const unsigned lookahead = controller_.lookahead;
  if (kProactive && lookahead > 0) {
    // Per-batch lookahead window (Execute's timings[i - lookahead] read,
    // without the vector): `slot` runs over i % lookahead, and a slot is
    // read only once this batch has written it, so the ring needs no
    // clearing and never more than one entry per request of the batch.
    const std::size_t needed =
        std::min<std::size_t>(lookahead, requests.size());
    if (lookahead_ring_.size() < needed) lookahead_ring_.resize(needed);
  }
  // Everything the loop touches is hoisted into locals: members are
  // reached through `this`, and stores to the per-DBC arrays and the
  // shared channel could alias them, forcing a reload per request. The
  // running statistics stay in scalars that nothing takes the address
  // of, and nothing on the hot path calls out (Execute reserved its
  // timings), so they stay in registers. A failing check leaves the loop
  // and throws only after the flush below has booked the prefix (the
  // channel is exclusively ours for the duration of the call — Execute
  // callers are never interleaved mid-batch).
  const double shift_latency_ns = config_.params.shift_latency_ns;
  // Indexed by "is a write": a data-dependent select without a branch.
  const double access_latency_ns[2] = {config_.params.read_latency_ns,
                                       config_.params.write_latency_ns};
  const std::size_t num_dbcs = dbc_free_ns_.size();
  const std::uint32_t num_domains = config_.domains_per_dbc;
  std::int64_t* const alignment = alignment_.data();
  std::uint8_t* const first_free = first_free_.data();
  double* const dbc_free_ns = dbc_free_ns_.data();
  double* const ring = lookahead_ring_.data();
  double channel_free_ns = channel_free();
  double last_arrival_ns = last_arrival_ns_;
  std::uint64_t requests_done = stats_.requests;
  std::uint64_t reads = stats_.reads;
  std::uint64_t writes = stats_.writes;
  std::uint64_t shifts_total = stats_.shifts;
  double makespan_ns = stats_.makespan_ns;
  double channel_busy_ns = stats_.channel_busy_ns;
  double shift_busy_ns = stats_.shift_busy_ns;
  double hidden_shift_ns = stats_.hidden_shift_ns;
  double exposed_shift_ns = stats_.exposed_shift_ns;
  std::size_t slot = 0;
  bool ring_full = false;
  enum class Fault { kNone, kArrival, kDbc, kDomain };
  Fault fault = Fault::kNone;
  for (const TimedRequest& request : requests) {
    // A failing check books the prefix before the bad request, as the
    // member-state loop did (the failing request's own work is not yet
    // in the locals; its arrival is, once it passed the order check).
    if (request.arrival_ns < last_arrival_ns) {
      fault = Fault::kArrival;
      break;
    }
    last_arrival_ns = request.arrival_ns;
    const unsigned dbc = request.dbc;
    if (dbc >= num_dbcs) {
      fault = Fault::kDbc;
      break;
    }
    if (request.domain >= num_domains) {
      fault = Fault::kDomain;
      break;
    }

    // Alignments stay within +-2^32, so every shift count fits int64
    // and converts to double exactly as the unsigned value would,
    // without the unsigned conversion's extra branch.
    std::int64_t shifts = 0;
    const auto target = static_cast<std::int64_t>(request.domain);
    if (first_free[dbc] != 0) {
      first_free[dbc] = 0;
    } else {
      shifts = std::llabs(alignment[dbc] - target);
    }
    alignment[dbc] = target;
    const double shift_time = static_cast<double>(shifts) * shift_latency_ns;
    const std::size_t is_write =
        request.type == trace::AccessType::kWrite ? 1 : 0;
    const double access_time = access_latency_ns[is_write];

    double shift_start_ns = 0.0;
    double access_start_ns = 0.0;
    double finish_ns = 0.0;
    double hidden_ns = 0.0;
    if constexpr (kProactive) {
      // The target becomes known when the request `lookahead` places
      // earlier issued; the DBC can shift in the background from then
      // on.
      double known_ns = request.arrival_ns;
      if (lookahead == 0) {
        known_ns = std::max(known_ns, channel_free_ns);
      } else if (ring_full) {
        known_ns = std::max(known_ns, ring[slot]);
      }
      shift_start_ns = std::max(dbc_free_ns[dbc], known_ns);
      const double shift_done = shift_start_ns + shift_time;
      access_start_ns =
          std::max({request.arrival_ns, channel_free_ns, shift_done});
      finish_ns = access_start_ns + access_time;
      // std::clamp(h, 0, shift_time) as max-then-min: the same value
      // for every input (shift_time >= 0), without branches.
      hidden_ns = shift_time -
                  BranchFreeMax(0.0, shift_done - channel_free_ns);
      hidden_ns = std::min(BranchFreeMax(hidden_ns, 0.0), shift_time);
      if (lookahead > 0) {
        ring[slot] = access_start_ns;
        if (++slot == lookahead) {
          slot = 0;
          ring_full = true;
        }
      }
      channel_free_ns = finish_ns;
      dbc_free_ns[dbc] = finish_ns;
      // Shifts occupy the DBC, not the shared channel: only the access
      // itself books channel time. The shift time the request still had
      // to wait out is exposed stall, accounted separately — folding it
      // into channel_busy_ns double-booked the channel (utilization
      // > 100%).
      channel_busy_ns += access_time;
      exposed_shift_ns += shift_time - hidden_ns;
      hidden_shift_ns += hidden_ns;
    } else {
      // Serial operation: shift + access both occupy the channel, so
      // the whole shift is exposed stall AND channel time (nothing is
      // hidden).
      shift_start_ns = std::max(request.arrival_ns, channel_free_ns);
      access_start_ns = shift_start_ns + shift_time;
      finish_ns = access_start_ns + access_time;
      channel_free_ns = finish_ns;
      dbc_free_ns[dbc] = finish_ns;
      channel_busy_ns += shift_time + access_time;
      exposed_shift_ns += shift_time;
    }

    shifts_total += static_cast<std::uint64_t>(shifts);
    shift_busy_ns += shift_time;
    makespan_ns = std::max(makespan_ns, finish_ns);
    ++requests_done;
    reads += 1 - is_write;
    writes += is_write;
    if constexpr (kRecord) {
      out->push_back(RequestTiming{shift_start_ns, access_start_ns,
                                   finish_ns,
                                   static_cast<std::uint64_t>(shifts),
                                   hidden_ns});
    }
  }
  set_channel_free(channel_free_ns);
  last_arrival_ns_ = last_arrival_ns;
  stats_.requests = requests_done;
  stats_.reads = reads;
  stats_.writes = writes;
  stats_.shifts = shifts_total;
  stats_.makespan_ns = makespan_ns;
  stats_.channel_busy_ns = channel_busy_ns;
  stats_.shift_busy_ns = shift_busy_ns;
  stats_.hidden_shift_ns = hidden_shift_ns;
  stats_.exposed_shift_ns = exposed_shift_ns;
  switch (fault) {
    case Fault::kNone:
      return;
    case Fault::kArrival:
      throw std::invalid_argument(
          "RtmController: arrivals must be non-decreasing");
    case Fault::kDbc:
      throw std::out_of_range("RtmController: DBC index out of range");
    case Fault::kDomain:
      throw std::out_of_range("RtmController: domain out of range");
  }
}

EnergyBreakdown RtmController::Energy() const {
  ActivityCounts activity;
  activity.reads = stats_.reads;
  activity.writes = stats_.writes;
  activity.shifts = stats_.shifts;
  activity.runtime_ns = stats_.makespan_ns;
  return ComputeEnergy(config_.params, activity);
}

void RtmController::Reset() {
  std::fill(alignment_.begin(), alignment_.end(), 0);
  std::fill(first_free_.begin(), first_free_.end(),
            config_.initial_alignment == InitialAlignment::kZero ? 0 : 1);
  std::fill(dbc_free_ns_.begin(), dbc_free_ns_.end(), 0.0);
  channel_free_ns_ = 0.0;
  last_arrival_ns_ = 0.0;
  stats_ = ControllerStats{};
}

ControllerStats ReplaySequence(
    const trace::AccessSequence& seq,
    const std::vector<std::pair<unsigned, std::uint32_t>>& locations,
    const RtmConfig& config, const ControllerConfig& controller) {
  if (locations.size() != seq.num_variables()) {
    throw std::invalid_argument("ReplaySequence: one location per variable");
  }
  std::vector<TimedRequest> requests;
  requests.reserve(seq.size());
  for (const trace::Access& access : seq.accesses()) {
    const auto& [dbc, domain] = locations[access.variable];
    requests.push_back(TimedRequest{0.0, dbc, domain, access.type});
  }
  RtmController engine(config, controller);
  engine.ExecuteBatch(requests);
  return engine.stats();
}

}  // namespace rtmp::rtm
