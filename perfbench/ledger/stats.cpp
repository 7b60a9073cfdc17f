#include "ledger/stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace ledger {

Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Nearest rank: the smallest value with at least q*n samples at or
/// below it.
double NearestRank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const auto it = v.begin() + static_cast<std::ptrdiff_t>(rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), it, v.end());
  return *it;
}

}  // namespace

void Sample::Append(const Sample& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

double Sample::Q(double q) const { return NearestRank(v_, q); }

double Sample::ChunkedQ(double q, std::size_t max_chunks) const {
  std::size_t chunks = std::max<std::size_t>(1, max_chunks);
  while (chunks > 1 && !Supports(v_.size() / chunks, q)) --chunks;
  if (chunks == 1) return Q(q);
  std::vector<double> per_chunk;
  const std::size_t size = v_.size() / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = v_.begin() + static_cast<std::ptrdiff_t>(c * size);
    const auto last = c + 1 == chunks ? v_.end()
                                      : first + static_cast<std::ptrdiff_t>(size);
    per_chunk.push_back(NearestRank(std::vector<double>(first, last), q));
  }
  return NearestRank(per_chunk, 0.5);
}

bool Supports(std::size_t n, double q, std::size_t min_beyond) {
  if (n == 0) return false;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n >= rank && n - rank >= min_beyond;
}

Percentile ReportQ(const Sample& s, double q, bool lower_is_better,
                   bool chunked) {
  Percentile p;
  p.n = s.n();
  p.supported = Supports(p.n, q);
  if (p.supported) {
    p.value = chunked ? s.ChunkedQ(q) : s.Q(q);
  } else {
    p.value = s.Q(lower_is_better ? 1.0 : 0.0);
  }
  return p;
}

Nanos PoissonGaps::Next() {
  // Inverse-CDF exponential; 1 - u keeps the log argument in (0, 1].
  const double u = rng_.NextDouble();
  const double gap_s = -std::log(1.0 - u) / rate_;
  return std::max<Nanos>(1, static_cast<Nanos>(gap_s * 1e9));
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  cdf_.resize(std::max<std::size_t>(n, 1));
  double acc = 0;
  for (std::size_t k = 0; k < cdf_.size(); ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::Sample(communix::Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace ledger
