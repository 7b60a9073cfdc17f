// Unit tests for the store subsystem: the segmented SignatureLog and its
// lock-free committed reads, the lock-striped user state and dedup index,
// and the SignatureStore's §III-C decisions and persistence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "../testutil.hpp"
#include "communix/store/dedup_index.hpp"
#include "communix/store/signature_log.hpp"
#include "communix/store/signature_store.hpp"
#include "communix/store/user_state_shards.hpp"

namespace communix::store {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

StoredSignature Entry(std::uint64_t n) {
  StoredSignature s;
  s.bytes = {static_cast<std::uint8_t>(n), static_cast<std::uint8_t>(n >> 8)};
  s.content_id = n;
  s.sender = n % 7;
  s.added_at = static_cast<TimePoint>(n);
  return s;
}

TEST(SignatureLogTest, AppendAssignsDenseIndexes) {
  SignatureLog log(1);
  EXPECT_EQ(log.size(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(log.Append(ViewOf(Entry(i))), i);
  }
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.At(42).content_id, 42u);
}

TEST(SignatureLogTest, VisitRespectsFromAndUpto) {
  SignatureLog log(1);
  for (std::uint64_t i = 0; i < 10; ++i) log.Append(ViewOf(Entry(i)));
  std::vector<std::uint64_t> seen;
  log.Visit(3, 7, [&](std::uint64_t i, const EntryView& s) {
    EXPECT_EQ(s.content_id, i);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 4, 5, 6}));
  // upto beyond size clamps; from beyond size is empty.
  seen.clear();
  log.Visit(8, 99, [&](std::uint64_t i, const EntryView&) {
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{8, 9}));
  log.Visit(50, 99, [&](std::uint64_t, const EntryView&) { FAIL(); });
}

TEST(SignatureLogTest, CrossesSegmentBoundaries) {
  SignatureLog log(1);
  const std::uint64_t n = 2 * SignatureLog::kSegmentSize + 500;
  for (std::uint64_t i = 0; i < n; ++i) log.Append(ViewOf(Entry(i)));
  EXPECT_EQ(log.size(), n);
  // Spot-check entries around every segment edge.
  for (std::uint64_t i : {SignatureLog::kSegmentSize - 1,
                          SignatureLog::kSegmentSize,
                          2 * SignatureLog::kSegmentSize - 1,
                          2 * SignatureLog::kSegmentSize, n - 1}) {
    EXPECT_EQ(log.At(i).content_id, i) << i;
  }
}

TEST(SignatureLogTest, ResetReplacesContents) {
  SignatureLog log(1);
  for (std::uint64_t i = 0; i < 10; ++i) log.Append(ViewOf(Entry(i)));
  std::vector<StoredSignature> fresh;
  for (std::uint64_t i = 100; i < 103; ++i) fresh.push_back(Entry(i));
  log.Reset(std::move(fresh));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.At(0).content_id, 100u);
  EXPECT_EQ(log.Append(ViewOf(Entry(7))), 3u)
      << "appends continue after the reset";
}

TEST(SignatureLogTest, ConcurrentReadersSeeOnlyCommittedEntries) {
  SignatureLog log(1);
  constexpr std::uint64_t kTotal = 20'000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t n = log.size();
        std::uint64_t count = 0;
        log.Visit(0, n, [&](std::uint64_t i, const EntryView& s) {
          // Every committed slot must be fully written: content matches
          // index, bytes match the pattern.
          if (s.content_id != i ||
              !std::ranges::equal(s.bytes, Entry(i).bytes)) {
            violations.fetch_add(1);
          }
          ++count;
        });
        if (count != n) violations.fetch_add(1);
      }
    });
  }
  for (std::uint64_t i = 0; i < kTotal; ++i) log.Append(ViewOf(Entry(i)));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(log.size(), kTotal);
}

TEST(SignatureLogTest, IncrementalCursorScansRaceConcurrentAppends) {
  // The server's GET(k) pattern: readers keep a cursor and scan only the
  // delta each round while appends land concurrently. Every delta must
  // be dense, in order, fully committed, and cursors must never observe
  // the log shrinking.
  SignatureLog log(1);
  constexpr std::uint64_t kTotal = 20'000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t cursor = 0;
      for (;;) {
        const std::uint64_t n = log.size();
        if (n < cursor) violations.fetch_add(1);
        std::uint64_t expect = cursor;
        log.Visit(cursor, n, [&](std::uint64_t i, const EntryView& s) {
          if (i != expect || s.content_id != i ||
              !std::ranges::equal(s.bytes, Entry(i).bytes)) {
            violations.fetch_add(1);
          }
          ++expect;
        });
        if (expect != n) violations.fetch_add(1);
        cursor = n;
        if (done.load(std::memory_order_acquire) && cursor == log.size()) {
          break;
        }
        std::this_thread::yield();
      }
      EXPECT_EQ(cursor, kTotal);
    });
  }
  for (std::uint64_t i = 0; i < kTotal; ++i) log.Append(ViewOf(Entry(i)));
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

TEST(UserStateShardsTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(UserStateShards(0).shard_count(), 1u);
  EXPECT_EQ(UserStateShards(1).shard_count(), 1u);
  EXPECT_EQ(UserStateShards(5).shard_count(), 8u);
  EXPECT_EQ(UserStateShards(16).shard_count(), 16u);
}

TEST(UserStateShardsTest, StatePersistsAcrossWithCalls) {
  UserStateShards shards(8);
  for (UserId u = 0; u < 100; ++u) {
    shards.With(u, [&](UserState& s) { s.processed_today = u; });
  }
  for (UserId u = 0; u < 100; ++u) {
    const std::size_t got =
        shards.With(u, [](UserState& s) { return s.processed_today; });
    EXPECT_EQ(got, u);
  }
  shards.Clear();
  EXPECT_EQ(shards.With(3, [](UserState& s) { return s.processed_today; }),
            0u);
}

TEST(UserStateShardsTest, ConcurrentDisjointUsersDontCorrupt) {
  UserStateShards shards(4);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const UserId user = static_cast<UserId>(t);
      for (int i = 0; i < kPerThread; ++i) {
        shards.With(user, [](UserState& s) { ++s.processed_today; });
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shards.With(static_cast<UserId>(t),
                          [](UserState& s) { return s.processed_today; }),
              static_cast<std::size_t>(kPerThread));
  }
}

TEST(DedupIndexTest, TryInsertIsIdempotentPerId) {
  DedupIndex dedup(4);
  EXPECT_TRUE(dedup.TryInsert(7));
  EXPECT_FALSE(dedup.TryInsert(7));
  EXPECT_TRUE(dedup.Contains(7));
  EXPECT_FALSE(dedup.Contains(8));
  dedup.Clear();
  EXPECT_FALSE(dedup.Contains(7));
  EXPECT_TRUE(dedup.TryInsert(7));
}

TEST(DedupIndexTest, ConcurrentInsertOfSameIdHasOneWinner) {
  DedupIndex dedup(8);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIds = 500;
  std::atomic<int> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int mine = 0;
      for (std::uint64_t id = 0; id < kIds; ++id) {
        if (dedup.TryInsert(id)) ++mine;
      }
      wins.fetch_add(mine);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), static_cast<int>(kIds))
      << "each id must be won exactly once across all threads";
}

// ---- SignatureStore ----

class StoreBackendTest : public ::testing::Test {
 protected:
  static std::unique_ptr<SignatureStore> Make() {
    return SignatureStore::Create({});
  }

  static Signature MakeSig(std::uint32_t salt) {
    return Sig2(ChainStack("st.A", 6, F("st.A", "s1", 100 + salt)),
                ChainStack("st.A", 6, F("st.A", "i1", 9100 + salt)),
                ChainStack("st.B", 6, F("st.B", "s2", 20300 + salt)),
                ChainStack("st.B", 6, F("st.B", "i2", 31400 + salt)));
  }

  AddOutcome Add(SignatureStore& store, UserId user, const Signature& sig,
                 std::int64_t day = 0) {
    return store.Add(user, day, TopFrameSet(sig), sig.ContentId(), sig,
                     /*added_at=*/0, limits_);
  }

  Limits limits_;
};

TEST_F(StoreBackendTest, AcceptDuplicateAndIndexOrder) {
  auto store = Make();
  EXPECT_EQ(Add(*store, 1, MakeSig(0)), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, 2, MakeSig(1000)), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, 3, MakeSig(0)), AddOutcome::kDuplicate);
  EXPECT_EQ(store->size(), 2u);
  std::vector<std::uint64_t> indexes;
  store->VisitRange(0, UINT64_MAX,
                    [&](std::uint64_t i, std::span<const std::uint8_t> b) {
                      indexes.push_back(i);
                      EXPECT_FALSE(b.empty());
                    });
  EXPECT_EQ(indexes, (std::vector<std::uint64_t>{0, 1}));
}

TEST_F(StoreBackendTest, RateLimitCountsProcessedNotAccepted) {
  auto store = Make();
  limits_.per_user_daily_limit = 3;
  // Duplicates consume quota too ("10 signatures *processed* per day").
  EXPECT_EQ(Add(*store, 1, MakeSig(0)), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, 1, MakeSig(0)), AddOutcome::kDuplicate);
  EXPECT_EQ(Add(*store, 1, MakeSig(5000)), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, 1, MakeSig(9000)), AddOutcome::kRateLimited);
  // Next day the quota resets.
  EXPECT_EQ(Add(*store, 1, MakeSig(9000), /*day=*/1), AddOutcome::kAccepted);
}

TEST_F(StoreBackendTest, TenantQuotaCapsTheCommunityAggregate) {
  auto store = Make();
  limits_.per_user_daily_limit = 10;
  limits_.per_tenant_daily_limit = 3;
  const CommunityId c = 5;
  // Three distinct members, each far under the personal limit — only the
  // tenant budget can stop the aggregate (the sybil-flood shape).
  EXPECT_EQ(Add(*store, MakeUserId(c, 1), MakeSig(0)), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, MakeUserId(c, 2), MakeSig(1000)),
            AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, MakeUserId(c, 3), MakeSig(2000)),
            AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, MakeUserId(c, 4), MakeSig(3000)),
            AddOutcome::kTenantRateLimited);
  // A different community is untouched by the exhausted budget...
  EXPECT_EQ(Add(*store, MakeUserId(c + 1, 1), MakeSig(4000)),
            AddOutcome::kAccepted);
  // ...and the tenant budget rolls over with the clock day.
  EXPECT_EQ(Add(*store, MakeUserId(c, 4), MakeSig(3000), /*day=*/1),
            AddOutcome::kAccepted);
}

TEST_F(StoreBackendTest, TenantQuotaCountsProcessedAfterUserQuota) {
  auto store = Make();
  limits_.per_user_daily_limit = 1;
  limits_.per_tenant_daily_limit = 3;
  const CommunityId c = 9;
  EXPECT_EQ(Add(*store, MakeUserId(c, 1), MakeSig(0)), AddOutcome::kAccepted);
  // The personal limit is checked first and rate-limited adds never
  // reach the tenant counter: member 1's second attempt hears the
  // personal answer and leaves the tenant pool at 1 of 3.
  EXPECT_EQ(Add(*store, MakeUserId(c, 1), MakeSig(500)),
            AddOutcome::kRateLimited);
  // Duplicates consume tenant budget too (processed, not accepted) —
  // same §III-C semantics as the per-user counter.
  EXPECT_EQ(Add(*store, MakeUserId(c, 2), MakeSig(0)), AddOutcome::kDuplicate);
  EXPECT_EQ(Add(*store, MakeUserId(c, 3), MakeSig(1000)),
            AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, MakeUserId(c, 4), MakeSig(2000)),
            AddOutcome::kTenantRateLimited);
  // Zero disables the tenant cap entirely.
  auto unlimited = Make();
  limits_.per_tenant_daily_limit = 0;
  limits_.per_user_daily_limit = 10;
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(Add(*unlimited, MakeUserId(c, 10 + i), MakeSig(5000 + i * 100)),
              AddOutcome::kAccepted);
  }
}

TEST_F(StoreBackendTest, AdjacencyRejectedPerUser) {
  auto store = Make();
  const auto shared_top = F("st.A", "s1", 100);
  const Signature s1 = Sig2(ChainStack("st.A", 6, shared_top),
                            ChainStack("st.A", 6, F("st.A", "i1", 200)),
                            ChainStack("st.B", 6, F("st.B", "s2", 300)),
                            ChainStack("st.B", 6, F("st.B", "i2", 400)));
  const Signature s2 = Sig2(ChainStack("st.A", 6, shared_top),
                            ChainStack("st.A", 6, F("st.A", "i1", 201)),
                            ChainStack("st.C", 6, F("st.C", "s3", 500)),
                            ChainStack("st.C", 6, F("st.C", "i3", 600)));
  EXPECT_EQ(Add(*store, 1, s1), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store, 1, s2), AddOutcome::kAdjacent);
  EXPECT_EQ(Add(*store, 2, s2), AddOutcome::kAccepted)
      << "adjacency is per-user";
  // With the check disabled the same signature passes.
  auto store2 = Make();
  limits_.adjacency_check_enabled = false;
  EXPECT_EQ(Add(*store2, 1, s1), AddOutcome::kAccepted);
  EXPECT_EQ(Add(*store2, 1, s2), AddOutcome::kAccepted);
}

TEST_F(StoreBackendTest, PersistenceRoundTrips) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_store_xb.bin")
          .string();
  auto store = Make();
  ASSERT_EQ(Add(*store, 1, MakeSig(0)), AddOutcome::kAccepted);
  ASSERT_EQ(Add(*store, 2, MakeSig(1000)), AddOutcome::kAccepted);
  ASSERT_TRUE(store->SaveToFile(path).ok());

  // The rebuilt dedup/adjacency state keeps enforcing the same rules.
  auto loaded = Make();
  ASSERT_TRUE(loaded->LoadFromFile(path).ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(Add(*loaded, 9, MakeSig(0)), AddOutcome::kDuplicate);
  std::vector<std::vector<std::uint8_t>> orig, reread;
  store->VisitRange(0, UINT64_MAX,
                    [&](std::uint64_t, std::span<const std::uint8_t> b) {
                      orig.emplace_back(b.begin(), b.end());
                    });
  loaded->VisitRange(0, UINT64_MAX,
                     [&](std::uint64_t, std::span<const std::uint8_t> b) {
                       reread.emplace_back(b.begin(), b.end());
                     });
  EXPECT_EQ(orig, reread) << "index order must survive the round trip";
  std::remove(path.c_str());
}

TEST_F(StoreBackendTest, ConcurrentAddsFromDistinctUsersAllLand)
{
  auto store = Make();
  limits_.per_user_daily_limit = 1'000'000;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint32_t salt =
            static_cast<std::uint32_t>(100'000 + t * 50'000 + i * 100);
        if (Add(*store, static_cast<UserId>(1000 + t * 1000 + i),
                MakeSig(salt)) == AddOutcome::kAccepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);
  EXPECT_EQ(store->size(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  // Every committed index is readable and nonempty.
  std::uint64_t visited = 0;
  store->VisitRange(0, UINT64_MAX,
                    [&](std::uint64_t, std::span<const std::uint8_t> b) {
                      EXPECT_FALSE(b.empty());
                      ++visited;
                    });
  EXPECT_EQ(visited, store->size());
}

}  // namespace
}  // namespace communix::store
