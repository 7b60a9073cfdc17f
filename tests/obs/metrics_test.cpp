// MetricsRegistry: sharded counters, gauges, power-of-2 histograms,
// probes, snapshot consistency (the tearing invariant the server relies
// on), and the JSON offline format.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/snapshot_io.hpp"

namespace communix::obs {
namespace {

TEST(CounterTest, AddsAccumulate) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentAddsLoseNothing) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kAdds = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.Add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(GaugeTest, SetAndUpdateMax) {
  Gauge g;
  g.Set(7);
  EXPECT_EQ(g.Value(), 7u);
  g.UpdateMax(3);
  EXPECT_EQ(g.Value(), 7u) << "UpdateMax never lowers";
  g.UpdateMax(19);
  EXPECT_EQ(g.Value(), 19u);
  g.Set(2);
  EXPECT_EQ(g.Value(), 2u) << "Set always overwrites";
}

// ---------------------------------------------------------------------------
// Histogram bucket boundaries: 1, 2^k, 2^k+1, zero and saturation.
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds {0, 1}; bucket i>0 holds [2^i, 2^(i+1)).
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 0u);
  for (std::size_t k = 1; k < 63; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(Histogram::BucketFor(pow), k) << "2^" << k;
    EXPECT_EQ(Histogram::BucketFor(pow + 1), k) << "2^" << k << "+1";
    EXPECT_EQ(Histogram::BucketFor(pow - 1), k - 1) << "2^" << k << "-1";
  }
  // Saturation: 2^63 and everything above land in the last bucket.
  EXPECT_EQ(Histogram::BucketFor(std::uint64_t{1} << 63),
            kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), kHistogramBuckets - 1);
}

TEST(HistogramTest, ReportAndSnapshot) {
  Histogram h;
  h.Report(0);
  h.Report(1);
  h.Report(4);
  h.Report(5);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum_ns, 10u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_DOUBLE_EQ(s.MeanNanos(), 2.5);
  EXPECT_EQ(h.TotalCount(), 4u);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.Snapshot().sum_ns, 0u);
}

TEST(HistogramTest, QuantilesAreBucketUpperBounds) {
  Histogram h;
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u) << "empty histogram";
  for (int i = 0; i < 99; ++i) h.Report(100);  // bucket 6: [64, 128)
  h.Report(std::uint64_t{1} << 40);
  EXPECT_EQ(h.ApproxQuantile(0.5), 127u);
  EXPECT_EQ(h.ApproxQuantile(1.0), (std::uint64_t{1} << 41) - 1);
  // A sample in the saturated last bucket reports an unbounded p100.
  Histogram sat;
  sat.Report(UINT64_MAX);
  EXPECT_EQ(sat.ApproxQuantile(1.0), UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CreateOrGetReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x.a");
  Counter* again = reg.GetCounter("x.a");
  EXPECT_EQ(a, again);
  Gauge* g = reg.GetGauge("x.g");
  EXPECT_EQ(g, reg.GetGauge("x.g"));
  Histogram* h = reg.GetHistogram("x.h");
  EXPECT_EQ(h, reg.GetHistogram("x.h"));
  // Distinct names are distinct metrics even across many insertions
  // (deque storage: no reallocation-based invalidation).
  std::vector<Counter*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(reg.GetCounter("bulk." + std::to_string(i)));
  }
  EXPECT_EQ(a, reg.GetCounter("x.a"));
  ptrs[57]->Add(3);
  EXPECT_EQ(ptrs[57]->Value(), 3u);
  EXPECT_EQ(ptrs[56]->Value(), 0u);
}

TEST(MetricsRegistryTest, SnapshotKeepsRegistrationOrderAndLookups) {
  MetricsRegistry reg;
  reg.GetCounter("first")->Add(1);
  reg.GetCounter("second")->Add(2);
  reg.GetGauge("depth")->Set(9);
  reg.GetHistogram("lat")->Report(5);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_GT(snap.captured_unix_ns, 0u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "first");
  EXPECT_EQ(snap.counters[1].first, "second");
  EXPECT_TRUE(snap.Has("second"));
  EXPECT_TRUE(snap.Has("depth"));
  EXPECT_FALSE(snap.Has("lat")) << "histograms are not Value()-addressable";
  EXPECT_EQ(snap.Value("second"), 2u);
  EXPECT_EQ(snap.Value("depth"), 9u);
  EXPECT_EQ(snap.Value("absent"), 0u);
  const HistogramSnapshot* h = snap.FindHistogram("lat");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_EQ(snap.FindHistogram("absent"), nullptr);
}

TEST(MetricsRegistryTest, ProbeLifecycle) {
  MetricsRegistry reg;
  std::atomic<int> calls{0};
  ProbeHandle handle = reg.RegisterProbe([&](ProbeSink& sink) {
    calls.fetch_add(1);
    sink.EmitCounter("probe.count", 11);
    sink.EmitGauge("probe.depth", 4);
  });
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(snap.Value("probe.count"), 11u);
  EXPECT_EQ(snap.Value("probe.depth"), 4u);

  handle.Release();
  handle.Release();  // idempotent
  snap = reg.Snapshot();
  EXPECT_EQ(calls.load(), 1) << "released probes never run again";
  EXPECT_FALSE(snap.Has("probe.count"));
}

TEST(MetricsRegistryTest, ProbeHandleOutlivingRegistryIsSafe) {
  ProbeHandle handle;
  {
    MetricsRegistry reg;
    handle = reg.RegisterProbe([](ProbeSink& sink) {
      sink.EmitCounter("late", 1);
    });
  }
  handle.Release();  // registry already gone: must be a no-op
}

// The invariant CommunixServer::GetStats/HandleStats rely on: when the
// writer bumps the total BEFORE the outcome and the snapshot reads the
// outcome FIRST (registration order), sum(outcomes) <= total in every
// observed snapshot, no matter how the reader interleaves with writers.
TEST(MetricsRegistryTest, SnapshotNeverTearsOutcomeTotalsApart) {
  MetricsRegistry reg;
  // Outcomes registered before the total, as the server does.
  Counter* ok = reg.GetCounter("op.ok");
  Counter* fail = reg.GetCounter("op.fail");
  Counter* total = reg.GetCounter("op.total");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        total->Add(1);  // total first...
        ((i + t) % 2 == 0 ? ok : fail)->Add(1);  // ...then the outcome
      }
    });
  }
  for (int i = 0; i < 400; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    EXPECT_LE(snap.Value("op.ok") + snap.Value("op.fail"),
              snap.Value("op.total"))
        << "snapshot " << i << " tore the outcome/total invariant";
  }
  stop.store(true);
  for (auto& th : writers) th.join();
  EXPECT_EQ(ok->Value() + fail->Value(), total->Value());
}

// ---------------------------------------------------------------------------
// JSON offline format (communix_stats --json <-> sig_inspect stats).
// ---------------------------------------------------------------------------

TEST(SnapshotJsonTest, RoundTripsEverything) {
  MetricsRegistry reg;
  reg.GetCounter("server.adds_accepted")->Add(17);
  reg.GetCounter("net.writev_flushes")->Add(3);
  reg.GetGauge("cluster.shipper.total_lag")->Set(12);
  Histogram* h = reg.GetHistogram("router.tenant.5.add_ns");
  h->Report(0);
  h->Report(900);
  h->Report(UINT64_MAX);  // saturated bucket survives the codec

  MetricsSnapshot snap = reg.Snapshot();
  TraceRecord t;
  t.verb = 2;
  t.status = 0;
  t.start_unix_ns = 1'000'000;
  t.stage_ns = {1, 2, 3, 4, 5, 6};
  t.total_ns = 21;
  snap.traces.push_back(t);

  const auto parsed = SnapshotFromJson(SnapshotToJson(snap));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, snap.version);
  EXPECT_EQ(parsed->captured_unix_ns, snap.captured_unix_ns);
  EXPECT_EQ(parsed->counters, snap.counters);
  EXPECT_EQ(parsed->gauges, snap.gauges);
  EXPECT_EQ(parsed->histograms, snap.histograms);
  EXPECT_EQ(parsed->traces, snap.traces);
}

TEST(SnapshotJsonTest, EscapesHostileNames) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("we\"ird\\name\nwith\tcontrol", 7);
  const auto parsed = SnapshotFromJson(SnapshotToJson(snap));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counters, snap.counters);
}

TEST(SnapshotJsonTest, RejectsNonSnapshots) {
  EXPECT_FALSE(SnapshotFromJson("").has_value());
  EXPECT_FALSE(SnapshotFromJson("not json").has_value());
  EXPECT_FALSE(SnapshotFromJson("{}").has_value()) << "version is required";
  EXPECT_FALSE(SnapshotFromJson("{\"version\": 1} trailing").has_value());
  // A truncated document never parses.
  MetricsRegistry reg;
  reg.GetCounter("a")->Add(1);
  reg.GetHistogram("h")->Report(3);
  const std::string good = SnapshotToJson(reg.Snapshot());
  // A prefix that only strips trailing whitespace is still complete
  // JSON; every shorter prefix must fail.
  const std::size_t trimmed = good.find_last_not_of(" \t\n") + 1;
  for (std::size_t n = 0; n < trimmed; ++n) {
    EXPECT_FALSE(SnapshotFromJson(good.substr(0, n)).has_value())
        << "prefix of " << n << " bytes parsed";
  }
  // The text renderer never crashes on anything that parsed.
  const auto snap = SnapshotFromJson(good);
  ASSERT_TRUE(snap.has_value());
  EXPECT_FALSE(RenderSnapshotText(*snap).empty());
}

}  // namespace
}  // namespace communix::obs
