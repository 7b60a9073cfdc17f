// Failover-aware cluster client: write routing, read fan-out, endpoint
// failover/healing, the monotonic-read guard, lineage changes, and the
// kill-primary smoke the CI cluster check runs.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "communix/client.hpp"
#include "communix/repository.hpp"
#include "sim/replica_set.hpp"
#include "util/clock.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using sim::ReplicaSet;
using sim::ReplicaSetOptions;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("cc.A", 6, F("cc.A", "s1", 100 + salt)),
              ChainStack("cc.A", 6, F("cc.A", "i1", 9100 + salt)),
              ChainStack("cc.B", 6, F("cc.B", "s2", 20300 + salt)),
              ChainStack("cc.B", 6, F("cc.B", "i2", 31400 + salt)));
}

/// ADD through the cluster client (one signature, distinct user).
Status AddViaClient(ReplicaSet& rs, std::uint32_t salt) {
  const UserToken token = rs.primary().IssueToken(2000 + salt);
  net::Request req;
  req.type = net::MsgType::kAddSignature;
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
  const auto bytes = MakeSig(salt).ToBytes();
  w.WriteRaw(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  req.payload = w.take();
  auto result = rs.client().Call(req);
  if (!result.ok()) return result.status();
  return result.value().ok()
             ? Status::Ok()
             : Status::Error(result.value().code, result.value().error);
}

TEST(ClusterClientTest, WritesGoToPrimaryReadsFanOutToReplicas) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  ReplicaSet rs(clock, opts);
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  EXPECT_EQ(rs.primary().db_size(), 6u);
  ASSERT_TRUE(rs.PumpUntilSynced());
  ASSERT_TRUE(rs.FollowersConverged());

  for (int i = 0; i < 10; ++i) {
    auto fetched = rs.client().FetchSince(0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().size(), 6u);
    EXPECT_EQ(fetched.value(), rs.primary().GetSince(0));
  }
  const auto stats = rs.client().GetStats();
  EXPECT_EQ(stats.writes_to_primary, 6u);
  // All database reads were served by replicas, none by the primary —
  // the read-offload the tier exists for.
  EXPECT_EQ(stats.reads_to_replicas, 10u);
  EXPECT_EQ(stats.reads_to_primary, 0u);
  // And the fan-out balanced them across both followers.
  EXPECT_EQ(rs.follower(0).GetStats().gets_served, 5u);
  EXPECT_EQ(rs.follower(1).GetStats().gets_served, 5u);
}

TEST(ClusterClientTest, LaggingReplicaNeverRegressesAFreshScan) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  opts.followers = 2;
  ReplicaSet rs(clock, opts);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.PumpUntilSynced());

  // More ADDs, then replicate them to follower 0 only: follower 1 lags
  // at 4 on the same lineage — random replication lag, as a client in
  // the field would see it.
  for (std::uint32_t i = 4; i < 9; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.shipper().ShipOnce(0).ok());
  ASSERT_EQ(rs.follower(0).db_size(), 9u);
  ASSERT_EQ(rs.follower(1).db_size(), 4u);

  // Fresh scans must never shrink once 9 entries have been observed:
  // replies from the lagging follower are discarded and the call retried
  // on the next endpoint within the same Call.
  for (int i = 0; i < 6; ++i) {
    auto scan = rs.client().FetchSince(0);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.value().size(), 9u);
  }
  EXPECT_EQ(rs.client().known_log_size(), 9u);
  EXPECT_GT(rs.client().GetStats().stale_read_retries, 0u);
  EXPECT_EQ(rs.client().GetStats().short_reads, 0u);

  // Incremental cursors see no regression either: GET(9) served by any
  // endpoint legitimately returns nothing new.
  auto incremental = rs.client().FetchSince(9);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental.value().empty());

  // Once replication catches up, the lagging follower serves fresh
  // scans again.
  ASSERT_TRUE(rs.PumpUntilSynced());
  auto after = rs.client().FetchSince(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 9u);
}

TEST(ClusterClientTest, DownReplicaFailsOverAndHeals) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  ReplicaSet rs(clock, opts);
  ASSERT_TRUE(AddViaClient(rs, 1).ok());
  ASSERT_TRUE(rs.PumpUntilSynced());

  rs.SetFollowerDown(0, true);
  for (int i = 0; i < 4; ++i) {
    auto fetched = rs.client().FetchSince(0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().size(), 1u);
  }
  EXPECT_GT(rs.client().GetStats().failovers, 0u);

  rs.SetFollowerDown(0, false);
  // Down endpoints are retried last; a later read heals the mark.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_GT(rs.follower(0).GetStats().gets_served, 0u);
}

TEST(ClusterClientTest, HealProbesBackOffToEveryKthRead) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  // Single follower makes the probe accounting deterministic: every read
  // during the outage is served by the primary, in order.
  opts.followers = 1;
  opts.client.heal_probe_period = 4;
  ReplicaSet rs(clock, opts);
  ASSERT_TRUE(AddViaClient(rs, 1).ok());
  ASSERT_TRUE(rs.PumpUntilSynced());

  // All endpoints up: reads never pay a probe.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_EQ(rs.client().GetStats().heal_probes, 0u);

  // Read 1 discovers the outage (fails over to the primary) and starts
  // the backoff counter; reads 2-3 skip the dead endpoint entirely. Only
  // read 4 pays a probe against it, and read 8 the next one — a dead
  // node costs one connect attempt per K reads, not one per read.
  rs.SetFollowerDown(0, true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_EQ(rs.client().GetStats().heal_probes, 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_EQ(rs.client().GetStats().heal_probes, 2u);

  // Revive: the 4th read after the last probe heals the endpoint.
  rs.SetFollowerDown(0, false);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_EQ(rs.client().GetStats().heal_probes, 3u);

  // Healed: reads fan back out to the follower and probing stops.
  const auto served_before = rs.follower(0).GetStats().gets_served;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rs.client().FetchSince(0).ok());
  }
  EXPECT_GT(rs.follower(0).GetStats().gets_served, served_before);
  EXPECT_EQ(rs.client().GetStats().heal_probes, 3u);
}

TEST(ClusterClientTest, RepliesStayByteIdenticalUnderEdgeChurn) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  opts.followers = 2;
  ReplicaSet rs(clock, opts);
  for (std::uint32_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.PumpUntilSynced());
  const auto reference = rs.primary().GetSince(0);
  ASSERT_TRUE(rs.client().FetchSince(0).ok());

  // Churn every edge; whichever endpoint answers, the client must serve
  // a stream byte-identical to the reference.
  for (int round = 0; round < 3; ++round) {
    rs.SetFollowerDown(0, true);
    auto a = rs.client().FetchSince(0);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value(), reference);
    rs.SetFollowerDown(0, false);
    rs.SetFollowerDown(1, true);
    auto b = rs.client().FetchSince(0);
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(b.value(), reference);
    rs.SetFollowerDown(1, false);
  }
}

TEST(ClusterClientTest, ReadAfterCompactServesTheNewLineage) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  opts.followers = 0;  // primary-only
  ReplicaSet rs(clock, opts);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.client().FetchSince(0).ok());

  // Compaction rewrites the log under a new epoch: the next read must
  // serve the new lineage's bytes, never the old ones.
  ASSERT_TRUE(rs.primary().MarkSuperseded(1));
  ASSERT_TRUE(rs.primary().MarkSuperseded(3));
  ASSERT_EQ(rs.primary().Compact(), 2u);

  auto fetched = rs.client().FetchSince(0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value(), rs.primary().GetSince(0));
  EXPECT_EQ(fetched.value().size(), 3u);
}

TEST(ClusterClientTest, ReplicaTeachesTheClientThePrimarysNewLineage) {
  // The client caches the primary's epoch. After Compact() the followers
  // catch up to the new lineage first; the client must learn it from
  // them, drop the old lineage's floor, and keep reading from the
  // followers instead of skipping them and settling for short reads.
  VirtualClock clock;
  ReplicaSetOptions opts;
  opts.followers = 2;
  ReplicaSet rs(clock, opts);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.PumpUntilSynced());
  ASSERT_TRUE(rs.client().FetchSince(0).ok());
  EXPECT_EQ(rs.client().known_log_size(), 5u);

  ASSERT_TRUE(rs.primary().MarkSuperseded(1));
  ASSERT_TRUE(rs.primary().MarkSuperseded(3));
  ASSERT_EQ(rs.primary().Compact(), 2u);
  ASSERT_TRUE(rs.PumpUntilSynced());
  ASSERT_TRUE(rs.FollowersConverged());

  auto gets = [&] {
    std::uint64_t followers = 0;
    for (std::size_t f = 0; f < rs.follower_count(); ++f) {
      followers += rs.follower(f).GetStats().gets_served;
    }
    return std::pair{followers, rs.primary().GetStats().gets_served};
  };
  const auto [followers_before, primary_before] = gets();
  const std::uint64_t f1_before = rs.follower(1).GetStats().gets_served;
  const auto reference = rs.primary().GetSince(0);
  for (int i = 0; i < 10; ++i) {
    auto fetched = rs.client().FetchSince(0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value(), reference);
  }
  const auto [followers_after, primary_after] = gets();
  EXPECT_EQ(followers_after - followers_before, 10u);
  EXPECT_EQ(primary_after - primary_before, 0u);
  EXPECT_GT(rs.follower(1).GetStats().gets_served, f1_before)
      << "both followers serve once their new epoch is known";
  const auto stats = rs.client().GetStats();
  EXPECT_EQ(stats.short_reads, 0u);
  EXPECT_EQ(stats.epoch_skips, 0u);
  EXPECT_EQ(stats.stale_read_retries, 0u);
  EXPECT_EQ(rs.client().known_log_size(), 3u) << "the floor is per lineage";
}

// ---------------------------------------------------------------------------
// ClusterSmoke: the CI cluster check (tools/ci.sh, default and --tsan
// modes). Primary + 2 followers over inproc; kill the primary; reads
// keep flowing from the followers with no cursor regression.
// ---------------------------------------------------------------------------
TEST(ClusterSmoke, KillPrimaryFailover) {
  VirtualClock clock;
  ReplicaSetOptions opts;
  opts.followers = 2;
  ReplicaSet rs(clock, opts);

  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(AddViaClient(rs, i).ok());
  }
  ASSERT_TRUE(rs.PumpUntilSynced());
  ASSERT_TRUE(rs.FollowersConverged());
  const auto reference = rs.primary().GetSince(0);

  // Kill the primary: writes fail, reads keep working byte-identically.
  rs.SetPrimaryDown(true);
  EXPECT_EQ(AddViaClient(rs, 99).code(), ErrorCode::kUnavailable);
  std::uint64_t cursor = 0;
  std::vector<std::vector<std::uint8_t>> stream;
  for (int i = 0; i < 10; ++i) {
    auto fetched = rs.client().FetchSince(cursor);
    ASSERT_TRUE(fetched.ok());
    for (auto& sig : fetched.value()) stream.push_back(std::move(sig));
    cursor = stream.size();
    ASSERT_LE(cursor, reference.size());  // no phantom entries
  }
  EXPECT_EQ(stream, reference);  // byte-identical, cursor-stable

  // The CommunixClient daemon path works unchanged over the cluster.
  LocalRepository repo;
  CommunixClient daemon(clock, rs.client(), repo);
  auto polled = daemon.PollOnce();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), reference.size());

  // Primary restart: writes resume, replication continues.
  rs.SetPrimaryDown(false);
  ASSERT_TRUE(AddViaClient(rs, 100).ok());
  ASSERT_TRUE(rs.PumpUntilSynced());
  ASSERT_TRUE(rs.FollowersConverged());
  auto final_scan = rs.client().FetchSince(0);
  ASSERT_TRUE(final_scan.ok());
  EXPECT_EQ(final_scan.value().size(), 9u);
}

}  // namespace
}  // namespace communix
