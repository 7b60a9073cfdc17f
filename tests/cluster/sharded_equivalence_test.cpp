// Sharded-deployment equivalence properties (the tentpole's acceptance
// criteria):
//
//  * Per-community equivalence — a randomized multi-tenant ADD trace
//    through the MultiGroupClient vs one standalone server per community
//    yields identical ADD statuses, and each community's committed
//    subsequence on its owner group is byte-identical to its reference
//    server's stream. Sharding must be invisible per tenant.
//  * Map-bump convergence — bumping the shard map mid-trace (servers
//    only; the client is left deliberately stale) loses no writes: the
//    first misrouted ADD bounces with kWrongGroup, the client refreshes
//    from the bounce hint and retries, and every subsequent request
//    routes straight to the new owner. Bounces are bounded, recovery is
//    automatic.
//
// ShardedSmoke is the CI cluster check for the sharded tier (tools/ci.sh
// default and --tsan modes): 2 groups x (primary + 2 followers), a
// multi-tenant workload, one mid-run map bump, full convergence.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "communix/cluster/router.hpp"
#include "communix/server.hpp"
#include "sim/replica_set.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using sim::ShardedDeployment;
using sim::ShardedDeploymentOptions;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

/// Per-community content salting: two tenants never produce identical
/// signature bytes, so cross-tenant dedup can't couple deployments the
/// reference setup models as independent.
Signature TenantSig(CommunityId community, std::uint32_t salt) {
  const std::string a =
      "sh.C" + std::to_string(community) + ".A" + std::to_string(salt % 5);
  const std::string b =
      "sh.C" + std::to_string(community) + ".B" + std::to_string(salt % 3);
  return Sig2(ChainStack(a, 6, F(a, "s1", 100 + salt * 4)),
              ChainStack(a, 6, F(a, "i1", 9100 + salt * 4)),
              ChainStack(b, 6, F(b, "s2", 20300 + salt * 4)),
              ChainStack(b, 6, F(b, "i2", 31400 + salt * 4)));
}

net::Request AddRequest(const UserToken& token, const Signature& sig) {
  net::Request req;
  req.type = net::MsgType::kAddSignature;
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
  const auto bytes = sig.ToBytes();
  w.WriteRaw(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  req.payload = w.take();
  return req;
}

Status AddSharded(ShardedDeployment& sd, CommunityId community,
                  const UserToken& token, const Signature& sig) {
  auto result = sd.client().CallFor(community, AddRequest(token, sig));
  if (!result.ok()) return result.status();
  return result.value().ok()
             ? Status::Ok()
             : Status::Error(result.value().code, result.value().error);
}

/// Community `c`'s committed subsequence on its owner group's primary.
std::vector<std::vector<std::uint8_t>> CommunityStream(ShardedDeployment& sd,
                                                       CommunityId c) {
  std::vector<std::vector<std::uint8_t>> out;
  CommunixServer& primary = sd.group(sd.GroupIndexFor(c)).primary();
  primary.VisitEntries(
      0, UINT64_MAX, [&](std::uint64_t, const store::EntryView& e) {
        if (CommunityOf(e.sender) == c) {
          out.emplace_back(e.bytes.begin(), e.bytes.end());
        }
      });
  return out;
}

TEST(ShardedEquivalenceTest, PerCommunityStreamsMatchStandaloneServers) {
  constexpr std::size_t kCommunities = 6;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    VirtualClock clock;

    ShardedDeploymentOptions opts;
    opts.groups = 3;
    opts.group_options.followers = 1;
    ShardedDeployment sd(clock, opts);

    // One standalone reference server per community — the single-tenant
    // deployment each tenant believes it is talking to.
    std::vector<std::unique_ptr<CommunixServer>> reference;
    for (std::size_t c = 0; c < kCommunities; ++c) {
      reference.push_back(std::make_unique<CommunixServer>(clock));
    }

    for (int step = 0; step < 300; ++step) {
      const CommunityId c = rng.NextBounded(kCommunities);
      const UserId user = MakeUserId(c, 1 + rng.NextBounded(6));
      const Signature sig =
          TenantSig(c, static_cast<std::uint32_t>(rng.NextBounded(40)));
      const Status ref = reference[c]->AddSignature(
          reference[c]->IssueToken(user), sig);
      const Status shd = AddSharded(
          sd, c, sd.group(0).primary().IssueToken(user), sig);
      ASSERT_EQ(ref.code(), shd.code())
          << "step " << step << " community " << c;
    }

    // No bounces happened: the client held map v1 throughout.
    EXPECT_EQ(sd.client().GetStats().wrong_group_bounces, 0u);

    std::size_t communities_seen = 0;
    for (std::size_t c = 0; c < kCommunities; ++c) {
      const auto ref_stream = reference[c]->GetSince(0);
      ASSERT_EQ(CommunityStream(sd, c), ref_stream) << "community " << c;
      if (!ref_stream.empty()) ++communities_seen;
    }
    ASSERT_GT(communities_seen, 1u) << "trace must exercise several tenants";

    // Replication inside each group still converges byte-identically.
    ASSERT_TRUE(sd.PumpUntilSynced());
    ASSERT_TRUE(sd.FollowersConverged());
  }
}

TEST(ShardedEquivalenceTest, MapBumpLosesNoWritesAndBouncesBounded) {
  VirtualClock clock;
  ShardedDeploymentOptions opts;
  opts.groups = 2;
  opts.group_options.followers = 1;
  // Generous budgets: the moved community's users re-consume quota on the
  // new owner, and the test is about routing, not rate limiting.
  opts.group_options.server.per_user_daily_limit = 1000;
  ShardedDeployment sd(clock, opts);

  const CommunityId moved = 3;
  const std::size_t before_idx = sd.GroupIndexFor(moved);
  const std::uint64_t new_owner = before_idx == 0 ? 2 : 1;

  // Pre-bump traffic lands on the HRW owner.
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(AddSharded(sd, moved,
                           sd.group(0).primary().IssueToken(MakeUserId(moved, i)),
                           TenantSig(moved, i))
                    .ok());
  }
  const std::uint64_t old_group_size =
      sd.group(before_idx).primary().db_size();
  ASSERT_EQ(old_group_size, 5u);

  // Bump: pin `moved` to the other group, servers only — the client
  // keeps routing by the stale v1 map until a bounce teaches it.
  const std::uint64_t v2 = sd.BumpShardMap({{moved, new_owner}});
  ASSERT_EQ(v2, 2u);
  ASSERT_EQ(sd.client().map_version(), 1u) << "client deliberately stale";

  // Post-bump traffic: fresh users and fresh content (the moved tenant's
  // new-owner store starts empty; reused users/content would rightly get
  // different quota/dedup answers than a fresh deployment). Every write
  // must succeed without any manual refresh.
  for (std::uint32_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        AddSharded(sd, moved,
                   sd.group(0).primary().IssueToken(MakeUserId(moved, 100 + i)),
                   TenantSig(moved, 1000 + i))
            .ok())
        << "write " << i << " lost across the map bump";
  }

  // Exactly one bounce healed the client; no write needed a second one.
  const auto stats = sd.client().GetStats();
  EXPECT_EQ(stats.wrong_group_bounces, 1u);
  EXPECT_GE(stats.map_installs, 1u);
  EXPECT_EQ(sd.client().map_version(), 2u);

  // The writes landed on the new owner; the old owner gained nothing.
  EXPECT_EQ(sd.group(before_idx).primary().db_size(), old_group_size);
  EXPECT_EQ(sd.group(new_owner - 1).primary().db_size(), 6u);
  // And the server-side bounce counter saw exactly the one misroute.
  EXPECT_EQ(sd.group(before_idx).primary().GetStats().wrong_group_bounces,
            1u);

  ASSERT_TRUE(sd.PumpUntilSynced());
  ASSERT_TRUE(sd.FollowersConverged());
}

// ---------------------------------------------------------------------------
// ShardedSmoke: the CI sharded-tier check (tools/ci.sh --groups=2
// --replicas=2 smoke, default and --tsan modes).
// ---------------------------------------------------------------------------
TEST(ShardedSmoke, TwoGroupsTwoFollowersWithMidRunMapBump) {
  VirtualClock clock;
  ShardedDeploymentOptions opts;
  opts.groups = 2;
  opts.group_options.followers = 2;
  opts.group_options.server.per_user_daily_limit = 1000;
  ShardedDeployment sd(clock, opts);

  constexpr std::size_t kCommunities = 8;
  // Uniform multi-tenant workload, phase 1.
  for (std::uint32_t i = 0; i < 48; ++i) {
    const CommunityId c = i % kCommunities;
    ASSERT_TRUE(
        AddSharded(sd, c,
                   sd.group(0).primary().IssueToken(MakeUserId(c, 1 + i)),
                   TenantSig(c, i))
            .ok());
  }
  // HRW spread both groups some work.
  EXPECT_GT(sd.group(0).primary().db_size(), 0u);
  EXPECT_GT(sd.group(1).primary().db_size(), 0u);
  EXPECT_EQ(sd.group(0).primary().db_size() + sd.group(1).primary().db_size(),
            48u);

  // Mid-run bump: move community 0 to the group it does NOT live on.
  const CommunityId moved = 0;
  const std::uint64_t new_owner =
      sd.GroupIndexFor(moved) == 0 ? 2 : 1;
  sd.BumpShardMap({{moved, new_owner}});

  // Phase 2 (fresh users/content for the moved tenant): no lost writes.
  for (std::uint32_t i = 0; i < 24; ++i) {
    const CommunityId c = i % kCommunities;
    ASSERT_TRUE(
        AddSharded(sd, c,
                   sd.group(0).primary().IssueToken(MakeUserId(c, 500 + i)),
                   TenantSig(c, 500 + i))
            .ok());
  }
  // The one misrouted write self-healed the client.
  EXPECT_GE(sd.client().GetStats().wrong_group_bounces, 1u);
  EXPECT_LE(sd.client().GetStats().wrong_group_bounces, 2u);
  EXPECT_EQ(sd.client().map_version(), 2u);

  // Per-tenant latency monitors saw the traffic.
  EXPECT_GT(sd.client().TenantLatencyFor(moved).add->TotalCount(), 0u);

  // Full replication convergence across both groups, then reads through
  // the sharded client observe each group's committed stream.
  ASSERT_TRUE(sd.PumpUntilSynced());
  ASSERT_TRUE(sd.FollowersConverged());
  for (CommunityId c = 0; c < kCommunities; ++c) {
    auto fetched = sd.client().FetchSince(c, 0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().size(),
              sd.group(sd.GroupIndexFor(c)).primary().db_size());
  }
}

}  // namespace
}  // namespace communix
