// Relaxed-atomic per-operation latency monitors.
//
// The instrumentation itself must not serialize the code it measures, so
// each operation class gets two relaxed atomic accumulators (sum of
// nanoseconds, count); Report() is two uncontended fetch_adds and can be
// called from any thread on the hottest path. Readers compute means from
// a racy-but-monotonic snapshot — good enough for benchmark reporting,
// which is the only consumer.
//
// LatencyMonitorsT<N> is the generic form (any size_t-indexed bucket
// set); LatencyMonitors keeps the original enum-indexed API the dimmunix
// runtime and the Table-II bench were built against.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>

namespace communix {

/// N relaxed (sum, count) accumulator pairs indexed by bucket.
template <std::size_t N>
class LatencyMonitorsT {
 public:
  static constexpr std::size_t kNumOps = N;

  void Report(std::size_t bucket, std::uint64_t nanos) {
    sum_nanos_[bucket].fetch_add(nanos, std::memory_order_relaxed);
    count_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t Count(std::size_t bucket) const {
    return count_[bucket].load(std::memory_order_relaxed);
  }
  std::uint64_t TotalNanos(std::size_t bucket) const {
    return sum_nanos_[bucket].load(std::memory_order_relaxed);
  }
  /// Mean nanoseconds per operation; 0 when nothing was reported.
  double MeanNanos(std::size_t bucket) const {
    const std::uint64_t n = Count(bucket);
    return n == 0 ? 0.0 : static_cast<double>(TotalNanos(bucket)) /
                              static_cast<double>(n);
  }

  void Reset() {
    for (std::size_t i = 0; i < N; ++i) {
      sum_nanos_[i].store(0, std::memory_order_relaxed);
      count_[i].store(0, std::memory_order_relaxed);
    }
  }

  /// One line per nonempty bucket; `names` has N entries.
  void GenerateReport(std::FILE* out, const char* const names[N]) const {
    for (std::size_t i = 0; i < N; ++i) {
      if (Count(i) == 0) continue;
      std::fprintf(out, "%-10s %12llu ops %12.0f ns/op\n", names[i],
                   static_cast<unsigned long long>(Count(i)), MeanNanos(i));
    }
  }

 private:
  std::atomic<std::uint64_t> sum_nanos_[N] = {};
  std::atomic<std::uint64_t> count_[N] = {};
};

enum class LatencyOp : std::size_t {
  kAcquire = 0,  // DimmunixRuntime::Acquire, any path
  kRelease,      // DimmunixRuntime::Release, any path
  kCritical,     // whole critical section (acquire..release)
  kNumOps,
};

class LatencyMonitors {
 public:
  static constexpr std::size_t kNumOps =
      static_cast<std::size_t>(LatencyOp::kNumOps);

  void Report(LatencyOp op, std::uint64_t nanos) {
    monitors_.Report(static_cast<std::size_t>(op), nanos);
  }

  std::uint64_t Count(LatencyOp op) const {
    return monitors_.Count(static_cast<std::size_t>(op));
  }
  std::uint64_t TotalNanos(LatencyOp op) const {
    return monitors_.TotalNanos(static_cast<std::size_t>(op));
  }
  /// Mean nanoseconds per operation; 0 when nothing was reported.
  double MeanNanos(LatencyOp op) const {
    return monitors_.MeanNanos(static_cast<std::size_t>(op));
  }

  void Reset() { monitors_.Reset(); }

  void GenerateReport(std::FILE* out) const {
    static constexpr const char* kNames[kNumOps] = {"acquire", "release",
                                                    "critical"};
    monitors_.GenerateReport(out, kNames);
  }

 private:
  LatencyMonitorsT<kNumOps> monitors_;
};

}  // namespace communix
