#include "util/latency_monitor.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace communix {
namespace {

TEST(LatencyMonitorTest, ReportsAccumulateAndAverage) {
  LatencyMonitors lat;
  EXPECT_EQ(lat.Count(LatencyOp::kAcquire), 0u);
  EXPECT_EQ(lat.MeanNanos(LatencyOp::kAcquire), 0.0);

  lat.Report(LatencyOp::kAcquire, 100);
  lat.Report(LatencyOp::kAcquire, 300);
  lat.Report(LatencyOp::kRelease, 50);
  EXPECT_EQ(lat.Count(LatencyOp::kAcquire), 2u);
  EXPECT_EQ(lat.TotalNanos(LatencyOp::kAcquire), 400u);
  EXPECT_DOUBLE_EQ(lat.MeanNanos(LatencyOp::kAcquire), 200.0);
  EXPECT_EQ(lat.Count(LatencyOp::kRelease), 1u);
  EXPECT_EQ(lat.Count(LatencyOp::kCritical), 0u);

  lat.Reset();
  EXPECT_EQ(lat.Count(LatencyOp::kAcquire), 0u);
  EXPECT_EQ(lat.TotalNanos(LatencyOp::kRelease), 0u);
}

TEST(LatencyMonitorTest, ConcurrentReportsLoseNothing) {
  LatencyMonitors lat;
  constexpr int kThreads = 4;
  constexpr int kReports = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kReports; ++i) lat.Report(LatencyOp::kCritical, 3);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(lat.Count(LatencyOp::kCritical),
            static_cast<std::uint64_t>(kThreads) * kReports);
  EXPECT_EQ(lat.TotalNanos(LatencyOp::kCritical),
            static_cast<std::uint64_t>(kThreads) * kReports * 3);
}

}  // namespace
}  // namespace communix
