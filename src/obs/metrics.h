// rtmlint: hot-path — Histogram::Record runs once per serve turn (the
// always-on per-tenant latency histograms) and must stay allocation-free.
//
// Deterministic metrics: named counters, gauges and fixed-layout
// log2-bucketed histograms. Everything here is a pure function of the
// recorded values — no wall clock, no addresses, no hash order — so a
// snapshot is bit-identical across reruns and RTMPLACE_THREADS values
// (the sim layer gives each matrix cell a private registry and merges
// them in grid order; see sim/experiment.cpp).
//
// Name/lookup calls (Counter/Gauge/Hist) may allocate, so nothing calls
// them per access: each engine publishes its counters once, from its
// finished result (OnlineEngine::Finish, CacheEngine::Finish,
// PlacementService::Run), and keeps no metric state while it runs.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace rtmp::util {
class JsonWriter;
}  // namespace rtmp::util

namespace rtmp::obs {

/// Fixed-layout log2 histogram over unsigned 64-bit samples.
///
/// Bucket index of a value is std::bit_width(value): bucket 0 holds the
/// exact value 0 and bucket b in [1, 64] holds [2^(b-1), 2^b - 1]
/// (bucket 64's high end saturates at UINT64_MAX). Counts are exact
/// integers, so Merge (elementwise add) is associative and commutative
/// and per-shard histograms sum EXACTLY to the device histogram — the
/// serve layer's attribution invariant extends to distributions.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 65;

  /// Bucket index a value lands in.
  [[nodiscard]] static std::size_t BucketOf(std::uint64_t value) noexcept;
  /// Inclusive value range of a bucket (index < kNumBuckets).
  [[nodiscard]] static std::uint64_t BucketLow(std::size_t bucket) noexcept;
  [[nodiscard]] static std::uint64_t BucketHigh(std::size_t bucket) noexcept;

  void Record(std::uint64_t value) noexcept {
    ++counts_[BucketOf(value)];
    ++total_;
  }

  /// Elementwise count addition.
  void Merge(const Histogram& other) noexcept;

  /// Upper bound of the bucket containing the q-quantile sample (q in
  /// [0, 1]; the rank-ceil(q*total) sample in sorted order). An empty
  /// histogram reads 0. The true sample quantile always lies within the
  /// returned bucket's [BucketLow, BucketHigh] — pinned against a
  /// sorted-vector oracle in tests/obs_test.cpp.
  [[nodiscard]] std::uint64_t Quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count(std::size_t bucket) const noexcept {
    return counts_[bucket];
  }

  [[nodiscard]] bool operator==(const Histogram& other) const noexcept =
      default;

  /// {"count": N, "p50": ..., "p95": ..., "p99": ..., "p999": ...,
  ///  "buckets": [[low, count], ...]} — non-empty buckets only, in
  ///  ascending bucket order.
  void WriteJson(util::JsonWriter& writer) const;

 private:
  std::array<std::uint64_t, kNumBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Named counters, gauges and histograms. Storage is std::map — sorted
/// iteration makes the JSON snapshot order deterministic and keeps node
/// addresses stable, so the references returned by Counter()/Gauge()/
/// Hist() stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  /// Resolve-or-create. Metric names follow "<layer>/<metric>"
  /// (e.g. "online/windows", "serve/turns", "cache/misses").
  [[nodiscard]] std::uint64_t& Counter(std::string_view name);
  [[nodiscard]] double& Gauge(std::string_view name);
  [[nodiscard]] Histogram& Hist(std::string_view name);

  /// Counters and gauges add, histograms Merge. Associative and
  /// commutative in the counts; the sim layer merges per-cell
  /// registries in grid order regardless, so the snapshot text is
  /// rerun- and thread-count-invariant too.
  void Merge(const MetricsRegistry& other);

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && hists_.empty();
  }

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: ...}}
  /// with members in sorted name order.
  void WriteJson(util::JsonWriter& writer) const;
  [[nodiscard]] std::string ToJson(int indent = 2) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> hists_;
};

}  // namespace rtmp::obs
