// Property test: the server's store makes the decisions of the reference
// model (reference_store.hpp), which restates the §III-C rules without
// the store's code. Random ADD/GET interleavings — including token
// forgeries, duplicates, adjacency collisions, rate-limit pressure and
// day rollovers — are applied to a server and the model; per-op
// statuses, GET replies at random cursors, Stats totals, DB contents and
// index order must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "reference_store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using store::AddOutcome;
using testutil::ChainStack;
using testutil::F;
using testutil::ReferenceStore;
using testutil::Sig2;

/// A signature whose top-frame lines come from a small pool, so random
/// picks collide: same salts twice = exact duplicate, overlapping salts =
/// adjacent (some-but-not-all shared tops), disjoint salts = accepted.
/// `c` moves one inner top alone, so two signatures can share every
/// outer top and still differ.
Signature PooledSig(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return Sig2(ChainStack("eq.A", 6, F("eq.A", "s", 10 + a)),
              ChainStack("eq.A", 6, F("eq.A", "i", 500 + a + 1000 * c)),
              ChainStack("eq.B", 6, F("eq.B", "s", 10 + b)),
              ChainStack("eq.B", 6, F("eq.B", "i", 500 + b)));
}

/// The status code the server answers a store outcome with.
ErrorCode CodeOf(AddOutcome outcome) {
  switch (outcome) {
    case AddOutcome::kAccepted:
      return ErrorCode::kOk;
    case AddOutcome::kDuplicate:
      return ErrorCode::kAlreadyExists;
    case AddOutcome::kRateLimited:
    case AddOutcome::kTenantRateLimited:
      return ErrorCode::kResourceExhausted;
    case AddOutcome::kAdjacent:
      return ErrorCode::kPermissionDenied;
  }
  return ErrorCode::kInternal;
}

/// The server's ADD counters equal the model's tallies plus the forged
/// tokens the test sent.
void ExpectStatsMatch(const CommunixServer::Stats& got,
                      const ReferenceStore::Counts& want,
                      std::uint64_t bad_tokens) {
  EXPECT_EQ(got.adds_accepted, want.accepted);
  EXPECT_EQ(got.adds_duplicate, want.duplicate);
  EXPECT_EQ(got.rejected_rate_limited, want.rate_limited);
  EXPECT_EQ(got.rejected_tenant_quota, want.tenant_rate_limited);
  EXPECT_EQ(got.rejected_adjacent, want.adjacent);
  EXPECT_EQ(got.rejected_bad_token, bad_tokens);
  EXPECT_EQ(got.rejected_malformed, 0u);
}

/// GET(from) through the wire handler, as one flat payload.
std::vector<std::uint8_t> Get(CommunixServer& server, std::uint64_t from) {
  net::Request req;
  req.type = net::MsgType::kGetSignatures;
  BinaryWriter w;
  w.WriteU64(from);
  req.payload = w.take();
  return server.Handle(req).FlattenedPayload();
}

TEST(StoreEquivalenceTest, RandomInterleavingsMatchTheModel) {
  constexpr int kOps = 4'000;
  constexpr int kUsers = 12;
  constexpr std::uint32_t kTopPool = 40;

  VirtualClock clock;
  CommunixServer::Options opts;
  // A tight quota makes rate-limit rejections common in the mix.
  opts.per_user_daily_limit = 2;
  CommunixServer server(clock, opts);
  ReferenceStore model(store::Limits{.per_user_daily_limit = 2});
  const auto today = [&] { return clock.Now() / kNanosPerDay; };
  std::uint64_t bad_tokens = 0;
  std::uint64_t gets = 0;

  Rng rng(0xE0E0);
  for (int op = 0; op < kOps; ++op) {
    const std::uint32_t kind = rng.NextBounded(100);
    if (kind < 70) {
      // ADD with a pooled signature; occasionally a forged token.
      const UserId user = 1 + rng.NextBounded(kUsers);
      const std::uint32_t a = rng.NextBounded(kTopPool);
      const std::uint32_t b = rng.NextBounded(kTopPool);
      const bool forge = rng.NextBounded(20) == 0;
      const Signature sig = PooledSig(a, b, rng.NextBounded(2));
      UserToken token = server.IssueToken(user);
      if (forge) token[3] ^= 0x5A;
      const Status got = server.AddSignature(token, sig);
      if (forge) {
        ++bad_tokens;
        ASSERT_EQ(got.code(), ErrorCode::kPermissionDenied) << "op " << op;
      } else {
        ASSERT_EQ(got.code(), CodeOf(model.Add(user, today(), sig)))
            << "op " << op;
      }
    } else if (kind < 90) {
      // GET(k): the model's reply, byte for byte.
      const std::uint64_t size = server.db_size();
      const std::uint64_t from = size == 0 ? 0 : rng.NextBounded(
          static_cast<std::uint32_t>(size + 1));
      ASSERT_EQ(Get(server, from), model.Get(from)) << "op " << op;
      ++gets;
    } else if (kind < 97) {
      // Batched ADD of 1-4 pooled signatures.
      const UserId user = 1 + rng.NextBounded(kUsers);
      std::vector<Signature> sigs;
      const std::uint32_t n = 1 + rng.NextBounded(4);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t a = rng.NextBounded(kTopPool);
        const std::uint32_t b = rng.NextBounded(kTopPool);
        sigs.push_back(PooledSig(a, b, rng.NextBounded(2)));
      }
      const auto got = server.AddBatch(
          server.IssueToken(user),
          std::span<const Signature>(sigs.data(), sigs.size()));
      ASSERT_EQ(got.size(), sigs.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].code(), CodeOf(model.Add(user, today(), sigs[i])))
            << "op " << op;
      }
    } else {
      // Day rollover: quotas reset.
      clock.AdvanceDays(1.0);
    }
  }

  const auto stats = server.GetStats();
  EXPECT_GT(stats.adds_accepted, 0u);
  EXPECT_GT(stats.adds_duplicate, 0u);
  EXPECT_GT(stats.rejected_adjacent, 0u);
  EXPECT_GT(stats.rejected_rate_limited, 0u);
  EXPECT_GT(stats.rejected_bad_token, 0u);
  ExpectStatsMatch(stats, model.counts(), bad_tokens);
  EXPECT_EQ(stats.gets_served, gets);
  EXPECT_EQ(server.GetSince(0), model.Since(0));
}

/// Thread `t`'s `i`-th signature: disjoint line pools per thread, so
/// never adjacent and never a duplicate.
Signature DisjointSig(int t, int i) {
  const std::uint32_t salt =
      static_cast<std::uint32_t>(10'000 + t * 100'000 + i * 10);
  return Sig2(ChainStack("cc.A", 6, F("cc.A", "s", salt)),
              ChainStack("cc.A", 6, F("cc.A", "i", salt + 1)),
              ChainStack("cc.B", 6, F("cc.B", "s", salt + 2)),
              ChainStack("cc.B", 6, F("cc.B", "i", salt + 3)));
}

TEST(StoreEquivalenceTest, ConcurrentDisjointLoadYieldsIdenticalTotals) {
  // Under real concurrency the interleaving is nondeterministic, but with
  // per-user disjoint workloads and globally unique contents the decision
  // totals are not: every ADD must be accepted, and the final database
  // must hold the multiset of signatures the model accepts from the same
  // ADDs in serial order.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;

  VirtualClock clock;
  CommunixServer::Options opts;
  opts.per_user_daily_limit = 1'000'000;
  CommunixServer server(clock, opts);
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const UserToken token = server.IssueToken(static_cast<UserId>(t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        if (server.AddSignature(token, DisjointSig(t, i)).ok()) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);

  ReferenceStore model(store::Limits{.per_user_daily_limit = 1'000'000});
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      model.Add(static_cast<UserId>(t + 1), 0, DisjointSig(t, i));
    }
  }
  auto db = server.GetSince(0);
  auto expect_db = model.Since(0);
  std::sort(db.begin(), db.end());
  std::sort(expect_db.begin(), expect_db.end());
  EXPECT_EQ(db, expect_db);
  ExpectStatsMatch(server.GetStats(), model.counts(), 0);
}

}  // namespace
}  // namespace communix
