// PersistentMap: random Set/Erase sequences must agree with std::map at
// every step, and a map version must never see another version's later
// edits (the structural sharing AvoidanceIndex snapshots rely on).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dimmunix/persistent_map.hpp"
#include "util/rng.hpp"

namespace communix::dimmunix {
namespace {

/// Same size and every model entry found: nothing more, nothing less.
void ExpectSame(const PersistentMap<std::uint64_t>& map,
                const std::map<std::uint64_t, std::uint64_t>& model) {
  ASSERT_EQ(map.size(), model.size());
  for (const auto& [key, value] : model) {
    const std::uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, value);
  }
}

TEST(PersistentMapTest, RandomEditsMatchStdMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    PersistentMap<std::uint64_t> map;
    std::map<std::uint64_t, std::uint64_t> model;
    // Earlier versions, each with the contents it had: later edits of
    // `map` must never show through them.
    std::vector<std::pair<PersistentMap<std::uint64_t>,
                          std::map<std::uint64_t, std::uint64_t>>>
        versions;
    for (int step = 0; step < 3000; ++step) {
      if (step % 250 == 0) versions.emplace_back(map, model);
      // Small keys collide in their low nibbles (deep splits); large
      // random ones spread; a few share all but the top nibble.
      std::uint64_t key = rng.NextBounded(64);
      if (step % 3 == 1) key = rng.NextU64();
      if (step % 7 == 0) key = (rng.NextBounded(4) << 60) | 0x5;
      if (rng.NextBounded(100) < 65) {
        map.Set(key, static_cast<std::uint64_t>(step));
        model[key] = static_cast<std::uint64_t>(step);
      } else {
        EXPECT_EQ(map.Erase(key), model.erase(key) == 1);
      }
      EXPECT_EQ(map.Find(0xFFFF'FFFF'FFFF'FFFFull) != nullptr,
                model.count(0xFFFF'FFFF'FFFF'FFFFull) == 1);
      if (step % 100 == 0) ExpectSame(map, model);
    }
    ExpectSame(map, model);
    for (const auto& [version, contents] : versions) {
      ExpectSame(version, contents);
    }
  }
}

TEST(PersistentMapTest, VersionsShareUntouchedValuesAndNeverSeeLaterEdits) {
  PersistentMap<std::uint64_t> v1;
  for (std::uint64_t k = 0; k < 500; ++k) v1.Set(k * 0x9E3779B97F4A7C15ull, k);
  PersistentMap<std::uint64_t> v2 = v1;
  v2.Set(7 * 0x9E3779B97F4A7C15ull, 700);
  v2.Erase(8 * 0x9E3779B97F4A7C15ull);
  v2.Set(12345, 1);

  EXPECT_EQ(*v1.Find(7 * 0x9E3779B97F4A7C15ull), 7u);
  EXPECT_NE(v1.Find(8 * 0x9E3779B97F4A7C15ull), nullptr);
  EXPECT_EQ(v1.Find(12345), nullptr);
  EXPECT_EQ(v1.size(), 500u);
  EXPECT_EQ(*v2.Find(7 * 0x9E3779B97F4A7C15ull), 700u);
  EXPECT_EQ(v2.Find(8 * 0x9E3779B97F4A7C15ull), nullptr);
  EXPECT_EQ(v2.size(), 500u);
  // An untouched key's value is the same object in both versions.
  EXPECT_EQ(v1.Find(9 * 0x9E3779B97F4A7C15ull),
            v2.Find(9 * 0x9E3779B97F4A7C15ull));
}

TEST(PersistentMapTest, EraseToEmptyAndRefill) {
  PersistentMap<std::uint64_t> map;
  for (std::uint64_t k = 0; k < 300; ++k) map.Set(k << 4, k);
  for (std::uint64_t k = 0; k < 300; ++k) ASSERT_TRUE(map.Erase(k << 4));
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.Erase(0));
  EXPECT_EQ(map.Find(0), nullptr);
  map.Set(3, 4);
  EXPECT_EQ(*map.Find(3), 4u);
  EXPECT_EQ(map.size(), 1u);
}

}  // namespace
}  // namespace communix::dimmunix
