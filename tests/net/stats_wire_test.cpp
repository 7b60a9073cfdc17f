// kStats wire frames: request/reply round trips, every-byte truncation,
// hostile count/length fields (the shard_map_wire_test discipline — this
// verb faces the open network like every other), and the verb served
// end-to-end by a CommunixServer, including the slow-trace sub-query.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "communix/server.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace communix {
namespace {

net::StatsRequest Req(bool metrics, bool traces, std::uint32_t max) {
  net::StatsRequest r;
  r.include_metrics = metrics;
  r.include_traces = traces;
  r.max_traces = max;
  return r;
}

obs::MetricsSnapshot SampleSnapshot() {
  obs::MetricsSnapshot snap;
  snap.captured_unix_ns = 123'456'789;
  snap.counters.emplace_back("server.adds_accepted", 17);
  snap.counters.emplace_back("net.writev_flushes", 0);
  snap.gauges.emplace_back("cluster.shipper.total_lag", 3);
  obs::HistogramSnapshot h;
  h.count = 3;
  h.sum_ns = 1'000;
  h.buckets[0] = 1;
  h.buckets[9] = 1;
  h.buckets[obs::kHistogramBuckets - 1] = 1;  // saturated bucket
  snap.histograms.emplace_back("router.tenant.5.add_ns", h);
  obs::TraceRecord t;
  t.verb = 2;
  t.status = 0;
  t.start_unix_ns = 42;
  t.stage_ns = {1, 2, 3, 4, 5, 6};
  t.total_ns = 21;
  snap.traces.push_back(t);
  return snap;
}

// ---------------------------------------------------------------------------
// Request frames.
// ---------------------------------------------------------------------------

TEST(StatsWireTest, RequestRoundTrip) {
  for (const auto& want :
       {Req(true, false, 0), Req(false, true, 7), Req(true, true, 0xFFFFu)}) {
    const net::Request req = net::BuildStatsRequest(want);
    EXPECT_EQ(req.type, net::MsgType::kStats);
    ASSERT_EQ(req.payload.size(), 5u);  // u8 flags + u32 max_traces
    const auto parsed = net::ParseStatsRequest(req);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, want);
  }
}

TEST(StatsWireTest, RequestRejectsReservedFlagsTruncationAndGarbage) {
  const net::Request valid = net::BuildStatsRequest(Req(true, true, 3));
  // Reserved flag bits must be zero.
  for (std::uint8_t flags = 4; flags != 0; flags <<= 1) {
    net::Request req = valid;
    req.payload[0] |= flags;
    EXPECT_FALSE(net::ParseStatsRequest(req).has_value())
        << "flags " << int(req.payload[0]);
  }
  // Every proper prefix fails.
  for (std::size_t n = 0; n < valid.payload.size(); ++n) {
    net::Request req = valid;
    req.payload.resize(n);
    EXPECT_FALSE(net::ParseStatsRequest(req).has_value()) << n << " bytes";
  }
  // Trailing garbage fails.
  net::Request trailing = valid;
  trailing.payload.push_back(0);
  EXPECT_FALSE(net::ParseStatsRequest(trailing).has_value());
  // Wrong verb fails.
  net::Request wrong = valid;
  wrong.type = net::MsgType::kPing;
  EXPECT_FALSE(net::ParseStatsRequest(wrong).has_value());
}

// ---------------------------------------------------------------------------
// Reply frames.
// ---------------------------------------------------------------------------

TEST(StatsWireTest, ReplyRoundTrip) {
  const obs::MetricsSnapshot want = SampleSnapshot();
  const auto got = net::ParseStatsReply(net::BuildStatsReply(want));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->version, want.version);
  EXPECT_EQ(got->captured_unix_ns, want.captured_unix_ns);
  EXPECT_EQ(got->counters, want.counters);
  EXPECT_EQ(got->gauges, want.gauges);
  EXPECT_EQ(got->histograms, want.histograms);
  EXPECT_EQ(got->traces, want.traces);
}

TEST(StatsWireTest, EmptySnapshotRoundTrips) {
  const auto got = net::ParseStatsReply(
      net::BuildStatsReply(obs::MetricsSnapshot{}));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->counters.empty());
  EXPECT_TRUE(got->traces.empty());
}

TEST(StatsWireTest, ReplyTruncatedAtEveryByteRejected) {
  const net::Response valid = net::BuildStatsReply(SampleSnapshot());
  for (std::size_t n = 0; n < valid.payload.size(); ++n) {
    net::Response resp = valid;
    resp.payload.resize(n);
    EXPECT_FALSE(net::ParseStatsReply(resp).has_value()) << n << " bytes";
  }
  net::Response trailing = valid;
  trailing.payload.push_back(0);
  EXPECT_FALSE(net::ParseStatsReply(trailing).has_value());
}

TEST(StatsWireTest, ReplyRejectsBadVersions) {
  for (const std::uint32_t version :
       {std::uint32_t{0}, obs::kSnapshotVersion + 1, 0xFFFFFFFFu}) {
    net::Response resp = net::BuildStatsReply(obs::MetricsSnapshot{});
    BinaryWriter w;
    w.WriteU32(version);
    // Splice the hostile version over the real one (first 4 bytes).
    const auto bytes = w.take();
    std::copy(bytes.begin(), bytes.end(), resp.payload.begin());
    EXPECT_FALSE(net::ParseStatsReply(resp).has_value()) << version;
  }
}

TEST(StatsWireTest, ReplyRejectsHostileCounts) {
  auto make = [](auto&& fill) {
    BinaryWriter w;
    w.WriteU32(obs::kSnapshotVersion);
    w.WriteU64(1);  // captured_unix_ns
    fill(w);
    net::Response resp;
    resp.payload = w.take();
    return net::ParseStatsReply(resp);
  };
  // Counter list claiming 2^32-1 entries in a tiny frame.
  EXPECT_FALSE(make([](BinaryWriter& w) {
                 w.WriteU32(0xFFFFFFFFu);
                 w.WriteU64(1);
               }).has_value());
  // Hostile histogram count.
  EXPECT_FALSE(make([](BinaryWriter& w) {
                 w.WriteU32(0);  // counters
                 w.WriteU32(0);  // gauges
                 w.WriteU32(0xFFFFFFFFu);
               }).has_value());
  auto hist_frame = [&make](std::uint32_t nonzero, std::uint8_t idx,
                            std::uint64_t cnt) {
    return make([&](BinaryWriter& w) {
      w.WriteU32(0);  // counters
      w.WriteU32(0);  // gauges
      w.WriteU32(1);  // one histogram
      w.WriteString("h");
      w.WriteU64(1);  // count
      w.WriteU64(1);  // sum_ns
      w.WriteU32(nonzero);
      w.WriteU8(idx);
      w.WriteU64(cnt);
      w.WriteU32(0);  // traces
    });
  };
  EXPECT_TRUE(hist_frame(1, 0, 1).has_value()) << "the well-formed baseline";
  EXPECT_FALSE(hist_frame(0xFFFFFFFFu, 0, 1).has_value())
      << "bucket-pair count above the bucket total";
  EXPECT_FALSE(hist_frame(1, obs::kHistogramBuckets, 1).has_value())
      << "bucket index out of range";
  EXPECT_FALSE(hist_frame(1, 0, 0).has_value())
      << "a zero-count pair is padding spam";
  // Hostile trace count.
  EXPECT_FALSE(make([](BinaryWriter& w) {
                 w.WriteU32(0);
                 w.WriteU32(0);
                 w.WriteU32(0);
                 w.WriteU32(0xFFFFFFFFu);
               }).has_value());
}

// ---------------------------------------------------------------------------
// Served end-to-end.
// ---------------------------------------------------------------------------

TEST(StatsServingTest, AnyRoleServesAConsistentSnapshot) {
  VirtualClock clock;
  for (const auto role : {ServerRole::kPrimary, ServerRole::kFollower}) {
    CommunixServer::Options opts;
    opts.role = role;
    CommunixServer server(clock, opts);
    const net::Response resp =
        server.Handle(net::BuildStatsRequest(Req(true, false, 0)));
    ASSERT_TRUE(resp.ok());
    const auto snap = net::ParseStatsReply(resp);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GT(snap->captured_unix_ns, 0u);
    EXPECT_TRUE(snap->Has("server.adds_processed"));
    EXPECT_TRUE(snap->Has("server.stats_served"));
    EXPECT_TRUE(snap->Has("store.persist.failures"));
    EXPECT_EQ(snap->Value("store.persist.failures"), 0u);
    EXPECT_NE(snap->FindHistogram("server.get.read_ns"), nullptr);
    EXPECT_TRUE(snap->traces.empty()) << "traces not requested";
    EXPECT_EQ(server.GetStats().stats_served, 1u);
  }
}

TEST(StatsServingTest, MetricsCanBeOmitted) {
  VirtualClock clock;
  CommunixServer server(clock);
  const auto snap = net::ParseStatsReply(
      server.Handle(net::BuildStatsRequest(Req(false, false, 0))));
  ASSERT_TRUE(snap.has_value());
  EXPECT_TRUE(snap->counters.empty());
  EXPECT_GT(snap->captured_unix_ns, 0u) << "timestamp still stamped";
}

TEST(StatsServingTest, MalformedStatsFrameCountsAsMalformed) {
  VirtualClock clock;
  CommunixServer server(clock);
  net::Request req;
  req.type = net::MsgType::kStats;
  req.payload = {0xFF};  // reserved flags + truncated
  const net::Response resp = server.Handle(req);
  EXPECT_EQ(resp.code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.GetStats().rejected_malformed, 1u);
  EXPECT_EQ(server.GetStats().stats_served, 0u);
}

TEST(StatsServingTest, SlowTracesServedButStatsNeverTraced) {
  VirtualClock clock;
  CommunixServer::Options opts;
  opts.slow_request_ns = 1;  // every traced request is "slow"
  CommunixServer server(clock, opts);

  for (int i = 0; i < 3; ++i) {
    // GETs through the wire path. Each trace publishes when its
    // Response (and PendingTrace) dies — scoped like a transport
    // dropping the flushed reply.
    net::Request get;
    get.type = net::MsgType::kGetSignatures;
    BinaryWriter w;
    w.WriteU64(0);
    get.payload = w.take();
    const net::Response resp = server.Handle(get);
    ASSERT_TRUE(resp.ok());
    ASSERT_NE(resp.trace, nullptr) << "GET replies carry the trace handle";
  }

  const auto snap = net::ParseStatsReply(
      server.Handle(net::BuildStatsRequest(Req(true, true, 8))));
  ASSERT_TRUE(snap.has_value());
  ASSERT_FALSE(snap->traces.empty()) << "the slow GET must be served";
  for (const auto& t : snap->traces) {
    EXPECT_NE(t.verb, static_cast<std::uint8_t>(net::MsgType::kStats))
        << "a monitoring poll must never evict the traces it reads";
    EXPECT_GT(t.total_ns, 0u);
  }
  EXPECT_EQ(snap->traces[0].verb,
            static_cast<std::uint8_t>(net::MsgType::kGetSignatures));

  // And the poll itself leaves no trace behind.
  const auto again = net::ParseStatsReply(
      server.Handle(net::BuildStatsRequest(Req(false, true, 8))));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->traces.size(), snap->traces.size());
}

}  // namespace
}  // namespace communix
