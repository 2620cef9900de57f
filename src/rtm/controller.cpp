// rtmlint: hot-path — ExecuteSpan is the per-request inner loop of every
// window flush and every sim::Simulate replay; allocations here are
// advisory findings (hot-path-alloc).
#include "rtm/controller.h"

#include <algorithm>
#include <stdexcept>

namespace rtmp::rtm {

RtmController::RtmController(RtmConfig config, ControllerConfig controller)
    : config_(std::move(config)), controller_(controller) {
  config_.Validate();
  const auto offsets = config_.EffectivePortOffsets();
  const bool start_at_zero =
      config_.initial_alignment == InitialAlignment::kZero;
  dbcs_.reserve(config_.total_dbcs());
  for (unsigned i = 0; i < config_.total_dbcs(); ++i) {
    dbcs_.emplace_back(config_.domains_per_dbc, offsets, start_at_zero);
  }
  dbc_free_ns_.assign(config_.total_dbcs(), 0.0);
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
  const unsigned lookahead = controller_.lookahead;
  const bool proactive = controller_.proactive_alignment;
  if (proactive && lookahead > 0) {
    // Per-batch lookahead window (Execute's timings[i - lookahead] read,
    // without the vector): slot i % lookahead holds the access start of
    // the request issued `lookahead` places earlier.
    lookahead_ring_.assign(lookahead, 0.0);
  }
  // Loop invariants and running state the compiler cannot keep in
  // registers itself: everything is reached through `this`, and the
  // shared-channel write in set_channel_free() aliases with every member
  // read, forcing a reload per request. Accumulate locally and flush at
  // every exit (the channel is exclusively ours for the duration of the
  // call — Execute callers are never interleaved mid-batch).
  const double shift_latency_ns = config_.params.shift_latency_ns;
  const double write_latency_ns = config_.params.write_latency_ns;
  const double read_latency_ns = config_.params.read_latency_ns;
  double channel_free_ns = channel_free();
  double last_arrival_ns = last_arrival_ns_;
  ControllerStats stats = stats_;
  const auto flush = [&] {
    set_channel_free(channel_free_ns);
    last_arrival_ns_ = last_arrival_ns;
    stats_ = stats;
  };
  try {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const TimedRequest& request = requests[i];
      if (request.arrival_ns < last_arrival_ns) {
        throw std::invalid_argument(
            "RtmController: arrivals must be non-decreasing");
      }
      last_arrival_ns = request.arrival_ns;
      if (request.dbc >= dbcs_.size()) {
        throw std::out_of_range("RtmController: DBC index out of range");
      }

      const std::uint64_t shifts = dbcs_[request.dbc].Access(request.domain);
      const double shift_time =
          static_cast<double>(shifts) * shift_latency_ns;
      const bool is_write = request.type == trace::AccessType::kWrite;
      const double access_time = is_write ? write_latency_ns
                                          : read_latency_ns;

      RequestTiming timing;
      timing.shifts = shifts;
      if (proactive) {
        // The target becomes known when the request `lookahead` places
        // earlier issued; the DBC can shift in the background from then
        // on.
        double known_ns = request.arrival_ns;
        if (lookahead == 0) {
          known_ns = std::max(known_ns, channel_free_ns);
        } else if (i >= lookahead) {
          known_ns = std::max(known_ns, lookahead_ring_[i % lookahead]);
        }
        timing.shift_start_ns = std::max(dbc_free_ns_[request.dbc], known_ns);
        const double shift_done = timing.shift_start_ns + shift_time;
        timing.access_start_ns =
            std::max({request.arrival_ns, channel_free_ns, shift_done});
        timing.finish_ns = timing.access_start_ns + access_time;
        timing.hidden_shift_ns =
            shift_time - std::max(0.0, shift_done - channel_free_ns);
        timing.hidden_shift_ns =
            std::clamp(timing.hidden_shift_ns, 0.0, shift_time);
        if (lookahead > 0) {
          lookahead_ring_[i % lookahead] = timing.access_start_ns;
        }
        channel_free_ns = timing.finish_ns;
        dbc_free_ns_[request.dbc] = timing.finish_ns;
        // Shifts occupy the DBC, not the shared channel: only the access
        // itself books channel time. The shift time the request still had
        // to wait out is exposed stall, accounted separately — folding it
        // into channel_busy_ns double-booked the channel (utilization
        // > 100%).
        stats.channel_busy_ns += access_time;
        stats.exposed_shift_ns += shift_time - timing.hidden_shift_ns;
      } else {
        // Serial operation: shift + access both occupy the channel, so
        // the whole shift is exposed stall AND channel time.
        timing.shift_start_ns = std::max(request.arrival_ns, channel_free_ns);
        timing.access_start_ns = timing.shift_start_ns + shift_time;
        timing.finish_ns = timing.access_start_ns + access_time;
        channel_free_ns = timing.finish_ns;
        dbc_free_ns_[request.dbc] = timing.finish_ns;
        stats.channel_busy_ns += shift_time + access_time;
        stats.exposed_shift_ns += shift_time;
      }

      stats.shifts += shifts;
      stats.shift_busy_ns += shift_time;
      stats.hidden_shift_ns += timing.hidden_shift_ns;
      stats.makespan_ns = std::max(stats.makespan_ns, timing.finish_ns);
      ++stats.requests;
      if (is_write) ++stats.writes;
      else ++stats.reads;
      if (out != nullptr) out->push_back(timing);
    }
  } catch (...) {
    // Keep the pre-throw prefix booked exactly as the member-state loop
    // did (the failing request's own work is not yet in the locals).
    flush();
    throw;
  }
  flush();
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
  for (DbcState& dbc : dbcs_) dbc.Reset();
  dbc_free_ns_.assign(dbcs_.size(), 0.0);
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
