// DoS containment (§III-C1, §IV-B): flooding and slow-down attacks are
// bounded by the combination of encrypted ids, the 10/day rate limit, the
// per-community quota, the adjacency rejection, the depth >= 5 rule and
// the nesting check.
#include <gtest/gtest.h>

#include "bytecode/synthetic.hpp"
#include "communix/agent.hpp"
#include "communix/client.hpp"
#include "communix/server.hpp"
#include "dimmunix/runtime.hpp"
#include "net/inproc.hpp"
#include "sim/attacker.hpp"
#include "util/clock.hpp"
#include "util/stopwatch.hpp"

namespace communix {
namespace {

using bytecode::GenerateApp;
using bytecode::SyntheticApp;
using bytecode::SyntheticSpec;
using dimmunix::DimmunixRuntime;
using dimmunix::Signature;

SyntheticApp App() {
  SyntheticSpec spec;
  spec.name = "dos";
  spec.target_loc = 12'000;
  spec.sync_blocks = 40;
  spec.analyzable_sync_blocks = 30;
  spec.nested_sync_blocks = 10;
  spec.sync_helpers = 2;
  spec.classes = 8;
  spec.driver_chain_length = 8;
  return GenerateApp(spec);
}

TEST(DosContainmentTest, FloodOfRandomFakesNeverReachesHistory) {
  VirtualClock clock;
  const auto app = App();
  CommunixServer server(clock);
  Rng rng(1);

  // 10 attackers, each with a valid id, each sending 50 fakes in one day.
  std::uint64_t accepted_by_server = 0;
  for (int a = 0; a < 10; ++a) {
    const UserToken token = server.IssueToken(static_cast<UserId>(a));
    for (int i = 0; i < 50; ++i) {
      if (server.AddSignature(token, sim::MakeRandomFakeSignature(rng)).ok()) {
        ++accepted_by_server;
      }
    }
  }
  // Server-side: at most 10 per attacker per day.
  EXPECT_LE(accepted_by_server, 10u * 10u);
  EXPECT_GE(server.GetStats().rejected_rate_limited, 10u * 40u);

  // Client-side: none of the fakes survives hash validation.
  net::InprocTransport transport(server);
  LocalRepository repo;
  CommunixClient client(clock, transport, repo);
  ASSERT_TRUE(client.PollOnce().ok());
  DimmunixRuntime runtime(clock);
  CommunixAgent agent(runtime, app.program, repo);
  const auto report = agent.ProcessNewSignatures();
  EXPECT_EQ(report.accepted, 0u);
  EXPECT_TRUE(runtime.SnapshotHistory().empty());
}

TEST(DosContainmentTest, TokenlessAttackerGetsNothingIn) {
  VirtualClock clock;
  CommunixServer server(clock);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    UserToken forged{};
    for (auto& b : forged) b = static_cast<std::uint8_t>(rng.NextU64());
    EXPECT_FALSE(
        server.AddSignature(forged, sim::MakeRandomFakeSignature(rng)).ok());
  }
  EXPECT_EQ(server.db_size(), 0u);
}

TEST(DosContainmentTest, AdjacencyLimitsPerUserCriticalPathSigs) {
  // Well-crafted critical-path signatures share helper top frames, so a
  // single user can only plant the first one; the rest are adjacent.
  VirtualClock clock;
  const auto app = App();
  CommunixServer server(clock);
  const UserToken token = server.IssueToken(7);

  const auto batch = sim::MakeCriticalPathBatch(app, app.nested_sites, 8, 5);
  int accepted = 0;
  for (const auto& sig : batch) {
    if (server.AddSignature(token, sig).ok()) ++accepted;
  }
  EXPECT_LT(accepted, 3) << "adjacency rejection must bite";
  EXPECT_GE(server.GetStats().rejected_adjacent, 5u);
}

TEST(DosContainmentTest, ShallowSignaturesRejectedByAgent) {
  VirtualClock clock;
  const auto app = App();
  LocalRepository repo;
  // Depth-1 and depth-4 attack signatures (below the threshold) plus one
  // depth-5 (at the threshold, accepted - the §IV-B residual).
  for (std::size_t depth : {1u, 2u, 4u}) {
    repo.Append({sim::MakeCriticalPathSignature(app, app.nested_sites[0],
                                                app.nested_sites[1], depth)
                     .ToBytes()});
  }
  repo.Append({sim::MakeCriticalPathSignature(app, app.nested_sites[2],
                                              app.nested_sites[3], 5)
                   .ToBytes()});

  DimmunixRuntime runtime(clock);
  CommunixAgent agent(runtime, app.program, repo);
  const auto report = agent.ProcessNewSignatures();
  EXPECT_EQ(report.rejected_depth, 3u);
  EXPECT_EQ(report.accepted, 1u)
      << "depth >= 5 critical-path signatures are the residual attack";
}

TEST(DosContainmentTest, WorstCaseHistoryBoundedByNestedSites) {
  // Even an attacker with unlimited ids who knows all nested sites can
  // force at most O(#nested sites) distinct bugs into one history:
  // signatures on non-nested or unanalyzable sites fail the nesting
  // check, and duplicates/merges collapse the rest.
  VirtualClock clock;
  const auto app = App();
  LocalRepository repo;
  // Every consecutive pair of nested sites, twice (second round with
  // deeper stacks: merges with the first round, adds nothing).
  for (int round = 0; round < 2; ++round) {
    const std::size_t depth = 5 + static_cast<std::size_t>(round);
    for (std::size_t i = 0; i + 1 < app.nested_sites.size(); ++i) {
      repo.Append({sim::MakeCriticalPathSignature(app, app.nested_sites[i],
                                                  app.nested_sites[i + 1],
                                                  depth)
                       .ToBytes()});
    }
  }
  DimmunixRuntime runtime(clock);
  CommunixAgent agent(runtime, app.program, repo);
  agent.ProcessNewSignatures();
  EXPECT_LE(runtime.SnapshotHistory().size(), app.nested_sites.size())
      << "history growth is capped by the nested-site inventory";
}

TEST(DosContainmentTest, CommunityFloodIsContainedByTheTenantQuota) {
  // A sybil swarm inside ONE community (many distinct ids, each well
  // under the per-user limit) floods the server. The per-community quota
  // caps the aggregate, while a bystander community on the same server
  // keeps a 100% accept rate.
  VirtualClock clock;
  CommunixServer::Options opts;
  opts.per_user_daily_limit = 10;
  opts.per_tenant_daily_limit = 20;
  CommunixServer server(clock, opts);
  const CommunityId victim = 1;
  const CommunityId bystander = 2;
  Rng rng(4);

  auto add = [&](CommunityId c, std::uint64_t member) {
    const UserToken token = server.IssueToken(MakeUserId(c, member));
    return server.AddSignature(token, sim::MakeRandomFakeSignature(rng)).ok();
  };

  // 40 sybil ids x 2 sigs each: every id stays far under the per-user
  // limit of 10, so only the per-tenant quota can stop the aggregate.
  // Bystander traffic (its own ids, its own community) interleaves.
  std::uint64_t flood_accepted = 0;
  std::uint64_t bystander_sent = 0;
  std::uint64_t bystander_ok = 0;
  for (std::uint64_t u = 0; u < 40; ++u) {
    for (int i = 0; i < 2; ++i) {
      if (add(victim, 100 + u)) ++flood_accepted;
    }
    if (u % 3 == 0) {
      ++bystander_sent;
      if (add(bystander, 100 + u)) ++bystander_ok;
    }
  }

  EXPECT_LE(flood_accepted, 20u);
  EXPECT_GE(server.GetStats().rejected_tenant_quota, 60u);
  EXPECT_EQ(bystander_ok, bystander_sent);
}

TEST(DosContainmentTest, PaperScaleFloodProcessedQuickly) {
  // §IV-B: "assuming 100 attackers with 5 ids each ... the server can
  // process the 5,000 signatures in 1 second". Validate the bound (the
  // signatures are *processed*, most are rate-limited away).
  VirtualClock clock;
  CommunixServer server(clock);
  Rng rng(3);
  Stopwatch watch;
  std::uint64_t accepted = 0;
  for (int attacker = 0; attacker < 100; ++attacker) {
    for (int id = 0; id < 5; ++id) {
      const UserToken token =
          server.IssueToken(static_cast<UserId>(attacker * 10 + id));
      for (int i = 0; i < 10; ++i) {
        if (server.AddSignature(token, sim::MakeRandomFakeSignature(rng))
                .ok()) {
          ++accepted;
        }
      }
    }
  }
  const double seconds = watch.ElapsedSeconds();
  EXPECT_LE(accepted, 5'000u);
  EXPECT_LT(seconds, 5.0) << "5,000 signatures must process in seconds";
}

}  // namespace
}  // namespace communix
