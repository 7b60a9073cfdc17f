// Tests for the 2Q admission cache in isolation (probation, ghost
// promotion, generation invalidation) — the slice cache behind the
// cluster client's delta fetch.
#include <gtest/gtest.h>

#include "communix/store/read_cache.hpp"

namespace communix::store {
namespace {

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

}  // namespace
}  // namespace communix::store
