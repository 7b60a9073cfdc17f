// Sample statistics and open-loop arrival processes for the ledger.
//
// Everything here is deterministic given its inputs, so the self-tests
// (selftest.cpp) pin the rules the reported numbers depend on: which
// percentile a sample count supports, how a generator stall is charged to
// the requests it delayed, and that seeded streams replay exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace ledger {

using Nanos = std::int64_t;

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
Nanos NowNs();

/// A growing sample of doubles, kept in arrival order, with
/// nearest-rank quantiles.
class Sample {
 public:
  void Add(double x) { v_.push_back(x); }
  void Append(const Sample& other);
  std::size_t n() const { return v_.size(); }
  /// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
  double Q(double q) const;
  /// Median over consecutive chunks (in arrival order) of each chunk's
  /// q-quantile. The chunk count is the largest, up to `max_chunks`,
  /// that leaves every chunk at least 10 samples beyond q, so a burst
  /// confined to one stretch of the run moves the result only as much as
  /// one chunk can. With fewer samples it is Q(q).
  double ChunkedQ(double q, std::size_t max_chunks = 7) const;
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// The percentile rule: quantile q of a sample of n is supported iff at
/// least `min_beyond` samples lie strictly above its rank, i.e.
/// n - ceil(q * n) >= min_beyond.
bool Supports(std::size_t n, double q, std::size_t min_beyond = 10);

/// A percentile as a report carries it.
struct Percentile {
  double value = 0;
  std::size_t n = 0;       // sample count
  bool supported = false;  // Supports(n, q)
};

/// Every reported percentile goes through this rule. A supported
/// quantile is reported as measured (ChunkedQ when `chunked`, else Q).
/// An unsupported one is reported as the sample's worst value — its
/// maximum when lower is better, else its minimum — so too few samples
/// can never read as an improvement; an empty sample reports 0. Either
/// way `supported` is false and the caller flags the metric.
Percentile ReportQ(const Sample& s, double q, bool lower_is_better,
                   bool chunked = false);

/// Poisson arrivals: exponential gaps at `rate_per_s`, from a seed.
class PoissonGaps {
 public:
  PoissonGaps(double rate_per_s, std::uint64_t seed)
      : rate_(rate_per_s), rng_(seed) {}
  /// The next inter-arrival gap in nanoseconds (>= 1).
  Nanos Next();

 private:
  double rate_;
  communix::Rng rng_;
};

/// Open-loop pacing: yields each scheduled request with its ORIGINAL due
/// time, however late the generator gets to it. A stall therefore shows
/// up as latency on every request that was due during it (measured from
/// `due`), never as silently skipped or re-spaced arrivals.
class Pacer {
 public:
  Pacer(Nanos start, double rate_per_s, std::uint64_t seed)
      : gaps_(rate_per_s, seed), next_(start + gaps_.Next()) {}
  /// If the next request is due at or before `now`, pops it into *due.
  bool Pop(Nanos now, Nanos* due) {
    if (next_ > now) return false;
    *due = next_;
    next_ += gaps_.Next();
    return true;
  }
  Nanos next_due() const { return next_; }

 private:
  PoissonGaps gaps_;
  Nanos next_;
};

/// Latency accounting of one open-loop request class: latency runs from
/// the due time to the reply, send lag from the due time to the send.
struct OpenLoopStats {
  Sample latency_ms;
  Sample send_lag_ms;
  void Record(Nanos due, Nanos sent, Nanos done) {
    latency_ms.Add(static_cast<double>(done - due) / 1e6);
    send_lag_ms.Add(static_cast<double>(sent - due) / 1e6);
  }
};

/// Zipf(s) over ranks [0, n): rank 0 is the most popular.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Sample(communix::Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace ledger
