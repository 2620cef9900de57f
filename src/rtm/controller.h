// Request-level RTM controller with timing: the repository's one device
// model. It answers "how many shifts / how much energy" for every layer
// (sim::Simulate replays through it in serial mode) and also "when":
// requests carry arrival times, the read/write channel is a shared
// resource, and per-DBC shifting can optionally proceed in the background
// (proactive port alignment, the technique of the paper's related work
// [1], [12], [20], [21]: align the likely-next domain to the port while
// the channel serves other DBCs).
//
// Timing model, per request r on DBC d (in arrival order):
//  * the controller learns r's target when the request `lookahead` places
//    earlier issues (lookahead 0 = no foresight, shifts start at issue);
//  * shifting occupies only DBC d: it may run from
//      max(dbc_free[d], known_time) for shifts x t_shift;
//  * the access occupies the shared channel:
//      start = max(arrival, channel_free, shift_done),
//      busy for t_read or t_write.
// With proactive alignment off, shifting is folded into the channel
// occupancy (classic serial operation), which reproduces the trace-driven
// runtime = sum of per-access latencies exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rtm/config.h"
#include "rtm/energy_model.h"
#include "trace/access_sequence.h"

namespace rtmp::rtm {

/// A read/write-channel timeline shared between several controllers.
/// The multi-tenant serve layer (src/serve/) partitions a device into
/// shards, each with its own RtmController (private DBC state), but the
/// access channel stays ONE resource: every shard controller pointed at
/// the same SharedChannel books its channel occupancy here, so one
/// shard's traffic delays another's exactly as on real hardware. With no
/// SharedChannel configured the controller uses its private timeline —
/// the arithmetic is identical either way, so a single shard behind a
/// SharedChannel is bit-identical to a bare controller.
class SharedChannel {
 public:
  /// Time the channel becomes free (ns since the common epoch).
  [[nodiscard]] double free_ns() const noexcept { return free_ns_; }

  void Reset() noexcept { free_ns_ = 0.0; }

 private:
  friend class RtmController;
  double free_ns_ = 0.0;
};

struct ControllerConfig {
  /// Enables background shifting (proactive alignment).
  bool proactive_alignment = false;
  /// How many requests ahead the controller can see targets (only
  /// meaningful with proactive_alignment; 1 is a realistic one-deep
  /// request queue, larger values approach the oracle).
  unsigned lookahead = 1;
  /// Non-owning; when set, channel occupancy is booked on this shared
  /// timeline instead of the controller's private one (see
  /// SharedChannel). The channel must outlive the controller; Reset()
  /// leaves it untouched (it belongs to the arbiter, not the shard).
  SharedChannel* shared_channel = nullptr;
};

/// One memory request presented to the controller.
struct TimedRequest {
  double arrival_ns = 0.0;
  unsigned dbc = 0;
  std::uint32_t domain = 0;
  trace::AccessType type = trace::AccessType::kRead;
};

/// Completion record for one request.
struct RequestTiming {
  double shift_start_ns = 0.0;
  double access_start_ns = 0.0;
  double finish_ns = 0.0;
  std::uint64_t shifts = 0;
  /// Shift time that ran in the background (hidden from the channel).
  double hidden_shift_ns = 0.0;
};

/// Aggregate controller statistics.
///
/// Shift-time accounting: every request's shift time splits into a hidden
/// part (ran in the background while the channel served other requests;
/// proactive mode only) and an exposed part (the requester had to wait it
/// out): shift_busy_ns == hidden_shift_ns + exposed_shift_ns. The shared
/// channel is booked only for time it is actually occupied — accesses
/// always; shifts only in serial mode, where the controller holds the
/// channel while shifting. In proactive mode shifts occupy just their DBC,
/// so exposed shift time is stall, NOT channel occupancy; it never inflates
/// channel_busy_ns (which previously could exceed the makespan, reporting
/// more than 100% channel utilization). Invariant either way:
/// channel_busy_ns <= makespan_ns for back-to-back request streams.
struct ControllerStats {
  std::uint64_t requests = 0;  ///< reads + writes
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t shifts = 0;
  double makespan_ns = 0.0;       ///< finish time of the last request
  double channel_busy_ns = 0.0;   ///< time the shared channel was occupied
  double shift_busy_ns = 0.0;     ///< total shifting time across DBCs
  double hidden_shift_ns = 0.0;   ///< shifting overlapped with the channel
  double exposed_shift_ns = 0.0;  ///< shift stall the requests waited out
};

class RtmController {
 public:
  RtmController(RtmConfig config, ControllerConfig controller);

  /// Executes requests in order (arrival times must be non-decreasing;
  /// throws std::invalid_argument otherwise). Returns per-request timings.
  std::vector<RequestTiming> Execute(const std::vector<TimedRequest>& requests);

  /// Batched service path: identical arithmetic and statistics to
  /// Execute, but no per-request RequestTiming is materialized — the
  /// proactive lookahead window lives in a small reused ring buffer
  /// instead of the full timing vector. The allocation-free way to
  /// service a window whose caller only reads stats().
  void ExecuteBatch(std::span<const TimedRequest> requests);

  [[nodiscard]] const ControllerStats& stats() const noexcept {
    return stats_;
  }

  /// Energy of everything executed so far; leakage uses the makespan
  /// (the array leaks while anything is in flight).
  [[nodiscard]] EnergyBreakdown Energy() const;

  void Reset();

 private:
  /// Private vs. shared channel timeline (see ControllerConfig).
  [[nodiscard]] double channel_free() const noexcept;
  void set_channel_free(double when_ns) noexcept;
  /// Shared body of Execute/ExecuteBatch; appends timings to `out` when
  /// non-null. Dispatches to one RunSpan instantiation.
  void ExecuteSpan(std::span<const TimedRequest> requests,
                   std::vector<RequestTiming>* out);
  /// The request loop, specialised on the mode and on whether timings
  /// are recorded.
  template <bool kProactive, bool kRecord>
  void RunSpan(std::span<const TimedRequest> requests,
               std::vector<RequestTiming>* out);

  RtmConfig config_;
  ControllerConfig controller_;
  /// Each DBC's alignment (the domain last at its port, which sits at
  /// offset 0) and whether its first access is still free (kFirstAccess
  /// until the DBC is first accessed). One subtraction prices an access.
  std::vector<std::int64_t> alignment_;
  std::vector<std::uint8_t> first_free_;
  std::vector<double> dbc_free_ns_;
  double channel_free_ns_ = 0.0;
  double last_arrival_ns_ = 0.0;
  ControllerStats stats_;
  /// access_start_ns of the last `lookahead` requests of the running
  /// batch (proactive mode): ExecuteBatch's replacement for indexing the
  /// materialized timing vector. Reused across batches.
  std::vector<double> lookahead_ring_;
};

/// Convenience: wraps a placement-mapped access sequence into back-to-back
/// requests (arrival 0) and executes them.
[[nodiscard]] ControllerStats ReplaySequence(
    const trace::AccessSequence& seq,
    const std::vector<std::pair<unsigned, std::uint32_t>>& locations,
    const RtmConfig& config, const ControllerConfig& controller);

}  // namespace rtmp::rtm
