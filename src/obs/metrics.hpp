// Process-wide metrics registry: named counters, gauges and power-of-2
// latency histograms behind one snapshot call.
//
// Each tier used to keep an ad-hoc stats struct (dimmunix StatCounters,
// CommunixServer::Stats relaxed atomics, TCP flush/backpressure
// counters), all observable only from inside the process. This registry
// generalizes the two patterns those structs share:
//
//   * Counter: the hot-path write is one relaxed-ish fetch_add into a
//     per-thread shard (the dimmunix StatCounters scheme, without the
//     per-component plumbing); reads sum the shards.
//   * Histogram: a power-of-2 bucket array (Report / MeanNanos /
//     ApproxQuantile / ApproxP99 / TotalCount), the repo's one
//     latency-distribution type.
//
// Snapshot consistency: each counter's value is a sum of monotonic
// shards, so a snapshot never under-reports a finished increment and
// never invents one — every value lies in [value at read start, value
// at read end]. Cross-counter invariants of the form
// "sum(outcomes) <= total" additionally hold in every snapshot IF the
// writer bumps the total BEFORE the outcome and the outcome counter is
// REGISTERED before the total: Counter::Add is a release write and
// snapshot reads (acquire, in registration order) therefore see the
// matching total increment for every outcome increment they observe.
// CommunixServer registers adds_processed after its outcome counters
// for exactly this reason; see the tearing test in
// tests/obs/metrics_test.cpp.
//
// Components that keep bespoke aggregation (the dimmunix runtime's
// context-owned shards, the log shipper's per-follower sessions) export
// through a *probe*: a callback that contributes computed values at
// snapshot time, unregistered by dropping the returned ProbeHandle.
//
// Registries are instances, not a global — sim tests run many servers
// in one process. Components take a shared_ptr<MetricsRegistry> in
// their Options and create a private one when none is supplied, so
// wiring several components to one registry is opt-in per deployment.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace communix::obs {

inline constexpr std::uint32_t kSnapshotVersion = 1;
inline constexpr std::size_t kCounterShards = 8;
inline constexpr std::size_t kHistogramBuckets = 64;

/// Monotonic counter. Writes land in a per-thread shard (release);
/// Value() sums the shards (acquire). See the header comment for the
/// cross-counter invariant this ordering buys.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    shards_[ShardIndex()].v.fetch_add(delta, std::memory_order_release);
  }
  std::uint64_t Value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_acquire);
    return sum;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static std::size_t ShardIndex();
  std::array<Shard, kCounterShards> shards_{};
};

/// Last-write-wins instantaneous value, plus a CAS-max update for peak
/// watermarks (the TCP tier's peak_outbound_queue_bytes pattern).
class Gauge {
 public:
  void Set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  void UpdateMax(std::uint64_t v) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Plain (non-atomic) histogram state: what a snapshot carries and what
/// the wire/JSON codecs serialize.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double MeanNanos() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// Upper edge of the bucket holding the q-quantile sample
  /// (conservative: the true sample is <= the returned value, except in
  /// the saturated last bucket which returns UINT64_MAX).
  std::uint64_t ApproxQuantile(double q) const;
  std::uint64_t ApproxP99() const { return ApproxQuantile(0.99); }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Power-of-2-bucket latency histogram. Bucket 0 holds {0, 1}ns;
/// bucket i>0 holds [2^i, 2^(i+1)); bucket 63 saturates.
class Histogram {
 public:
  void Report(std::uint64_t nanos) {
    buckets_[BucketFor(nanos)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(nanos, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double MeanNanos() const { return Snapshot().MeanNanos(); }
  std::uint64_t ApproxQuantile(double q) const {
    return Snapshot().ApproxQuantile(q);
  }
  std::uint64_t ApproxP99() const { return ApproxQuantile(0.99); }

  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// floor(log2(nanos)) clamped to [0, 63]; 0 maps to bucket 0.
  static std::size_t BucketFor(std::uint64_t nanos) {
    if (nanos == 0) return 0;
    std::size_t b = 0;
    while (nanos >>= 1) ++b;
    return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// One consistent view of a registry (plus, when served over the wire,
/// the endpoint's recent slow traces). Entries keep registration order.
struct MetricsSnapshot {
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t captured_unix_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<TraceRecord> traces;

  bool Has(std::string_view name) const;
  /// Counter-or-gauge value by name; 0 when absent.
  std::uint64_t Value(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
};

/// Snapshot-time emission surface handed to probes.
class ProbeSink {
 public:
  void EmitCounter(std::string name, std::uint64_t value) {
    snap_.counters.emplace_back(std::move(name), value);
  }
  void EmitGauge(std::string name, std::uint64_t value) {
    snap_.gauges.emplace_back(std::move(name), value);
  }

 private:
  friend class MetricsRegistry;
  explicit ProbeSink(MetricsSnapshot& snap) : snap_(snap) {}
  MetricsSnapshot& snap_;
};

using ProbeFn = std::function<void(ProbeSink&)>;

namespace detail {
struct ProbeTable {
  std::mutex mu;
  std::map<std::uint64_t, ProbeFn> probes;  // id order = registration order
  std::uint64_t next_id = 1;
};
}  // namespace detail

/// Unregisters its probe when dropped. Safe in either destruction
/// order (component before registry or registry before component).
class ProbeHandle {
 public:
  ProbeHandle() = default;
  ~ProbeHandle() { Release(); }
  ProbeHandle(ProbeHandle&& other) noexcept
      : table_(std::move(other.table_)), id_(other.id_) {
    other.id_ = 0;
    other.table_.reset();
  }
  ProbeHandle& operator=(ProbeHandle&& other) noexcept {
    if (this != &other) {
      Release();
      table_ = std::move(other.table_);
      id_ = other.id_;
      other.id_ = 0;
      other.table_.reset();
    }
    return *this;
  }
  ProbeHandle(const ProbeHandle&) = delete;
  ProbeHandle& operator=(const ProbeHandle&) = delete;

  /// Unregisters the probe now (idempotent; the destructor calls it).
  /// Use when the probed component dies before the handle goes out of
  /// scope.
  void Release();

 private:
  friend class MetricsRegistry;
  std::weak_ptr<detail::ProbeTable> table_;
  std::uint64_t id_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Create-or-get. Returned pointers are stable for the registry's
  /// lifetime — components resolve them once and bump lock-free.
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Registers a snapshot-time callback (see header comment).
  [[nodiscard]] ProbeHandle RegisterProbe(ProbeFn fn);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  // deques: pointer stability without per-entry allocation.
  std::deque<std::pair<std::string, Counter>> counters_;
  std::deque<std::pair<std::string, Gauge>> gauges_;
  std::deque<std::pair<std::string, Histogram>> histograms_;
  std::unordered_map<std::string, Counter*> counter_index_;
  std::unordered_map<std::string, Gauge*> gauge_index_;
  std::unordered_map<std::string, Histogram*> histogram_index_;
  std::shared_ptr<detail::ProbeTable> probes_;
};

}  // namespace communix::obs
