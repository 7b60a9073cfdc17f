// Tests for the read/bootstrap performance tier's hot-read path: the 2Q
// admission cache in isolation (probation, ghost promotion, generation
// invalidation) and the store's ReadSince on top of it — the cached GET
// fast path must stay byte-identical to the cold scan under every
// combination of backend, cache setting, appends, resets and compaction.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>

#include "../testutil.hpp"
#include "communix/store/read_cache.hpp"
#include "communix/store/signature_store.hpp"
#include "util/serde.hpp"

namespace communix::store {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

std::shared_ptr<const CachedSlice> Slice(std::uint64_t from,
                                         std::uint64_t upto) {
  auto s = std::make_shared<CachedSlice>();
  s->from = from;
  s->upto = upto;
  s->count = static_cast<std::uint32_t>(upto - from);
  s->payload = {static_cast<std::uint8_t>(from), static_cast<std::uint8_t>(upto)};
  return s;
}

TEST(ReadCacheTest, MissThenAdmitThenHit) {
  ReadCache cache(8);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, Slice(0, 10));
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->upto, 10u);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.admissions, 1u);
}

TEST(ReadCacheTest, ExtensionReplacesInPlace) {
  ReadCache cache(8);
  cache.Insert(1, Slice(0, 10));
  cache.Insert(1, Slice(0, 25));  // same key, longer slice
  const auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->upto, 25u);
  EXPECT_EQ(cache.resident(), 1u);
}

TEST(ReadCacheTest, OneShotCursorsWashThroughProbation) {
  // 2Q's reason to exist: a burst of one-off cursors must not evict the
  // hot key. Capacity 8 → A1in holds 2, Am holds 6.
  ReadCache cache(8);
  cache.Insert(1, Slice(0, 10));       // the hot key, in probation
  (void)cache.Lookup(1, 0);            // A1in hit: no promotion yet
  for (std::uint64_t k = 100; k < 102; ++k) {
    cache.Insert(1, Slice(k, k + 1));  // evicts key 0 from A1in -> ghost
  }
  EXPECT_EQ(cache.Lookup(1, 0), nullptr) << "fell out of probation";
  // Re-reference after probation eviction: the ghost queue remembers the
  // key, so the re-insert goes straight to the protected LRU.
  cache.Insert(1, Slice(0, 10));
  EXPECT_EQ(cache.GetStats().promotions, 1u);
  // Now a long burst of one-shot cursors cannot displace it.
  for (std::uint64_t k = 200; k < 240; ++k) {
    cache.Insert(1, Slice(k, k + 1));
  }
  EXPECT_NE(cache.Lookup(1, 0), nullptr)
      << "protected key survived the scan burst";
}

TEST(ReadCacheTest, NewerGenerationDropsEverything) {
  ReadCache cache(8);
  cache.Insert(3, Slice(0, 10));
  ASSERT_NE(cache.Lookup(3, 0), nullptr);
  EXPECT_EQ(cache.Lookup(4, 0), nullptr) << "new generation invalidates";
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.GetStats().invalidations, 1u);
  // And the old generation can never resurface or pollute.
  cache.Insert(3, Slice(0, 10));
  EXPECT_EQ(cache.Lookup(4, 0), nullptr);
  EXPECT_EQ(cache.Lookup(3, 0), nullptr) << "stale reader misses cleanly";
}

TEST(ReadCacheTest, ClearDropsResidentsAndGhosts) {
  ReadCache cache(4);
  cache.Insert(1, Slice(0, 10));
  cache.Insert(1, Slice(5, 10));
  cache.Clear();
  EXPECT_EQ(cache.resident(), 0u);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

// ---- the store's ReadSince fast path over the cache ----

class ReadSinceTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<SignatureStore> Make(std::size_t slices = 64) const {
    StoreOptions opts;
    opts.backend = GetParam();
    opts.user_shards = 4;
    opts.dedup_shards = 4;
    opts.read_cache_slices = slices;
    return SignatureStore::Create(opts);
  }

  static Signature MakeSig(std::uint32_t salt) {
    return Sig2(ChainStack("rc.A", 6, F("rc.A", "s1", 100 + salt)),
                ChainStack("rc.A", 6, F("rc.A", "i1", 9100 + salt)),
                ChainStack("rc.B", 6, F("rc.B", "s2", 20300 + salt)),
                ChainStack("rc.B", 6, F("rc.B", "i2", 31400 + salt)));
  }

  void Add(SignatureStore& store, std::uint32_t salt) {
    const Signature sig = MakeSig(salt);
    ASSERT_EQ(store.Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                        sig, 0, limits_),
              AddOutcome::kAccepted);
  }

  ReadSinceTest() { limits_.per_user_daily_limit = 1u << 20; }

  Limits limits_;
};

TEST_P(ReadSinceTest, CachedAndColdRepliesAreByteIdentical) {
  auto cached = Make(64);
  auto cold = Make(0);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Add(*cached, i);
    Add(*cold, i);
  }
  for (const std::uint64_t from : {0u, 1u, 17u, 39u, 40u, 99u}) {
    SignatureStore::ReadPath cpath{}, kpath{};
    const auto a = cached->ReadSince(from, &cpath);  // cold fill
    const auto b = cached->ReadSince(from, &cpath);  // served from cache
    const auto c = cold->ReadSince(from, &kpath);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(a->payload, c->payload) << "from=" << from;
    EXPECT_EQ(b->payload, c->payload) << "from=" << from;
    EXPECT_EQ(b->count, c->count);
    if (from < 40) {
      EXPECT_EQ(cpath, SignatureStore::ReadPath::kCacheHit);
      EXPECT_EQ(kpath, SignatureStore::ReadPath::kColdScan);
    }
  }
}

TEST_P(ReadSinceTest, ExtensionScansOnlyTheSuffix) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 10; ++i) Add(*store, i);
  SignatureStore::ReadPath path{};
  const auto first = store->ReadSince(0, &path);
  EXPECT_EQ(path, SignatureStore::ReadPath::kColdScan);
  ASSERT_EQ(first->count, 10u);

  for (std::uint32_t i = 10; i < 14; ++i) Add(*store, i);
  const auto extended = store->ReadSince(0, &path);
  EXPECT_EQ(path, SignatureStore::ReadPath::kCacheExtend)
      << "append must not force a full rescan";
  ASSERT_EQ(extended->count, 14u);
  // The extension's prefix is the first slice's bytes, verbatim.
  ASSERT_GE(extended->payload.size(), first->payload.size());
  EXPECT_TRUE(std::equal(first->payload.begin(), first->payload.end(),
                         extended->payload.begin()));
  // And the whole thing matches a cold scan.
  auto cold = Make(0);
  for (std::uint32_t i = 0; i < 14; ++i) Add(*cold, i);
  EXPECT_EQ(extended->payload, cold->ReadSince(0)->payload);
}

TEST_P(ReadSinceTest, HotCursorHitRateIsHigh) {
  // The acceptance bar: >= 90% hits on a repeat-read workload.
  auto store = Make();
  for (std::uint32_t i = 0; i < 50; ++i) Add(*store, i);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(store->ReadSince(0)->count, 50u);
  }
  const auto stats = store->read_cache_stats();
  const double hit_rate =
      static_cast<double>(stats.hits) / (stats.hits + stats.misses);
  EXPECT_GE(hit_rate, 0.9) << "hits=" << stats.hits
                           << " misses=" << stats.misses;
}

TEST_P(ReadSinceTest, EmptyCursorPollsBypassTheCache) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 3; ++i) Add(*store, i);
  const auto before = store->read_cache_stats();
  SignatureStore::ReadPath path{};
  const auto slice = store->ReadSince(3, &path);  // from == size
  EXPECT_EQ(slice->count, 0u);
  EXPECT_EQ(path, SignatureStore::ReadPath::kCacheHit) << "zero scan work";
  const auto after = store->read_cache_stats();
  EXPECT_EQ(after.misses, before.misses) << "no stats pollution";
}

TEST_P(ReadSinceTest, GenerationBumpsInvalidateAcrossLogSwaps) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 8; ++i) Add(*store, i);
  const std::uint64_t gen0 = store->read_generation();
  ASSERT_EQ(store->ReadSince(0)->count, 8u);  // fill the cache

  // A lineage reset swaps the log: the generation must move and the old
  // slice must never be served again.
  store->ResetForReplication(4242);
  EXPECT_NE(store->read_generation(), gen0);
  SignatureStore::ReadPath path{};
  EXPECT_EQ(store->ReadSince(0, &path)->count, 0u);

  for (std::uint32_t i = 100; i < 103; ++i) Add(*store, i);
  const auto fresh = store->ReadSince(0);
  EXPECT_EQ(fresh->count, 3u) << "post-swap reads see only the new log";
}

TEST_P(ReadSinceTest, CompactInvalidatesAndRepliesStayConsistent) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 12; ++i) Add(*store, i);
  ASSERT_EQ(store->ReadSince(0)->count, 12u);
  const std::uint64_t gen_before = store->read_generation();
  const std::uint64_t epoch_before = store->epoch();

  ASSERT_TRUE(store->MarkSuperseded(3));
  ASSERT_TRUE(store->MarkSuperseded(7));
  // Marks alone must not disturb cursors or the cache generation.
  EXPECT_EQ(store->ReadSince(0)->count, 12u);
  EXPECT_EQ(store->read_generation(), gen_before);

  EXPECT_EQ(store->Compact(), 2u);
  EXPECT_NE(store->read_generation(), gen_before);
  EXPECT_NE(store->epoch(), epoch_before) << "compaction is a new lineage";
  EXPECT_EQ(store->ReadSince(0)->count, 10u);
  // Cached and cold agree on the compacted log too.
  EXPECT_EQ(store->ReadSince(0)->payload, store->ReadSince(0)->payload);
}

/// Number of length-prefixed entries in a slice payload, or -1 if the
/// payload does not parse to whole entries.
long CountEntries(const CachedSlice& slice) {
  BinaryReader r(std::span<const std::uint8_t>(slice.payload.data(),
                                               slice.payload.size()));
  long entries = 0;
  while (!r.AtEnd()) {
    (void)r.ReadBytes();
    if (!r.ok()) return -1;
    ++entries;
  }
  return entries;
}

TEST_P(ReadSinceTest, ConcurrentReadersAndWritersStayCoherent) {
  // Hammer ReadSince from two readers on the same cursor while ADDs
  // land: every reply must be internally consistent (its payload parses
  // to exactly `count` entries) and a prefix of the log. Two readers are
  // what make one of them find a slice the other cached past the length
  // it loaded. The signatures are built up front so the ADDs land back
  // to back, and the replies are checked as they arrive against the
  // serialized log. Run under TSAN via the communix test binary.
  constexpr std::uint32_t kEntries = 400;
  std::vector<Signature> sigs;
  BinaryWriter log_bytes;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    sigs.push_back(MakeSig(i));
    const auto bytes = sigs.back().ToBytes();
    log_bytes.WriteBytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
  const std::vector<std::uint8_t>& expected = log_bytes.data();
  auto store = Make();
  const auto add = [&](std::uint32_t i) {
    const Signature& sig = sigs[i];
    return store->Add(1 + i % 5, 0, TopFrameSet(sig), sig.ContentId(), sig, 0,
                      limits_) == AddOutcome::kAccepted;
  };
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(add(i));

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<int> bad_count{0};
  std::atomic<int> bad_prefix{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) {
        const auto slice = store->ReadSince(0);
        if (CountEntries(*slice) != static_cast<long>(slice->count)) {
          bad_count.fetch_add(1);
        }
        if (slice->payload.size() > expected.size() ||
            !std::equal(slice->payload.begin(), slice->payload.end(),
                        expected.begin())) {
          bad_prefix.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  for (std::uint32_t i = 4; i < kEntries; ++i) ASSERT_TRUE(add(i));
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(bad_count.load(), 0)
      << "replies whose payload does not hold exactly count entries";
  EXPECT_EQ(bad_prefix.load(), 0) << "replies that are not a log prefix";
  const auto final_slice = store->ReadSince(0);
  EXPECT_EQ(final_slice->count, kEntries);
  EXPECT_EQ(final_slice->payload, expected);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReadSinceTest,
                         ::testing::Values(Backend::kSharded,
                                           Backend::kMonolithic),
                         [](const auto& info) {
                           return info.param == Backend::kSharded
                                      ? "Sharded"
                                      : "Monolithic";
                         });

}  // namespace
}  // namespace communix::store
