// AvoidanceIndex delta-rebuild properties: a chain of Rebuild() calls
// (one per history mutation, fed by the history's change journal) must
// stay observationally identical to a from-scratch Build() after every
// step, while actually sharing the previous snapshot's entries and key
// slots and carrying adaptive key stats across rebuilds that leave a
// key's candidates unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "../testutil.hpp"
#include "dimmunix/avoidance_index.hpp"
#include "dimmunix/history.hpp"
#include "util/rng.hpp"

namespace communix::dimmunix {
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("ai.A", 4, F("ai.A", "s", 10 + salt)),
              ChainStack("ai.A", 4, F("ai.A", "i", 500 + salt)),
              ChainStack("ai.B", 4, F("ai.B", "s", 1000 + salt)),
              ChainStack("ai.B", 4, F("ai.B", "i", 2000 + salt)));
}

/// Signatures of one `group` share their first position's top frame, so
/// their candidates meet in one key slot.
Signature MakeGroupSig(std::uint32_t salt, std::uint32_t group) {
  return Sig2(ChainStack("ai.G", 4, F("ai.G", "s", 10 + group)),
              ChainStack("ai.G", 4, F("ai.G", "i", 500 + salt)),
              ChainStack("ai.H", 4, F("ai.H", "s", 1000 + salt)),
              ChainStack("ai.H", 4, F("ai.H", "i", 2000 + salt)));
}

/// Candidate lists as (content_id, position) pairs, in slot order —
/// entries are distinct objects across independent builds, so identity
/// must be compared by content.
std::vector<std::pair<std::uint64_t, std::uint32_t>> CandidateContents(
    const AvoidanceIndex& index, std::uint64_t key) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  const auto* cands = index.CandidatesForTopFrame(key);
  if (cands == nullptr) return out;
  for (const auto& c : *cands) {
    out.emplace_back(c.entry->content_id, c.position);
  }
  return out;
}

std::shared_ptr<const AvoidanceIndex> RebuildFromJournal(
    const AvoidanceIndex& prev, History& h, std::uint64_t version) {
  const auto changed = h.TakeChangedRecords();
  EXPECT_TRUE(changed.has_value());
  return AvoidanceIndex::Rebuild(prev, h, *changed, version);
}

std::vector<std::uint64_t> AllTopKeys(const History& h) {
  std::set<std::uint64_t> keys;
  for (const SignatureRecord& rec : h.records()) {
    for (const auto& e : rec.sig.entries()) keys.insert(e.outer.TopKey());
  }
  keys.insert(0xDEADBEEF);  // a key no signature has
  return {keys.begin(), keys.end()};
}

void ExpectObservationallyEqual(const AvoidanceIndex& full,
                                const AvoidanceIndex& delta,
                                const History& h, std::uint64_t step) {
  EXPECT_EQ(full.size(), delta.size()) << "step " << step;
  EXPECT_EQ(full.empty(), delta.empty()) << "step " << step;
  EXPECT_EQ(full.version(), delta.version()) << "step " << step;
  EXPECT_EQ(full.key_count(), delta.key_count()) << "step " << step;
  EXPECT_EQ(full.key_bucket_collisions(), delta.key_bucket_collisions())
      << "step " << step;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const auto* fe = full.EntryForRecord(i);
    const auto* de = delta.EntryForRecord(i);
    ASSERT_EQ(fe == nullptr, de == nullptr) << "step " << step;
    if (fe != nullptr) {
      EXPECT_EQ(fe->content_id, de->content_id) << "step " << step;
      EXPECT_EQ(de->record, i) << "step " << step;
      EXPECT_EQ(de->sig, h.record(i).sig) << "step " << step;
    }
  }
  for (const std::uint64_t key : AllTopKeys(h)) {
    EXPECT_EQ(CandidateContents(full, key), CandidateContents(delta, key))
        << "step " << step << " key " << key;
    const auto* fs = full.SlotForTopFrame(key);
    const auto* ds = delta.SlotForTopFrame(key);
    ASSERT_EQ(fs == nullptr, ds == nullptr) << "step " << step;
    if (fs != nullptr) {
      EXPECT_EQ(fs->peer_buckets, ds->peer_buckets) << "step " << step;
      EXPECT_EQ(fs->fingerprint, ds->fingerprint) << "step " << step;
    }
  }
}

TEST(AvoidanceIndexTest, DeltaRebuildChainMatchesFullBuild) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    History h;
    std::vector<std::uint64_t> contents;
    auto index = AvoidanceIndex::Build(h, 0);

    for (std::uint64_t step = 1; step <= 60; ++step) {
      const std::uint32_t kind = static_cast<std::uint32_t>(
          rng.NextBounded(100));
      if (kind < 40 || contents.empty()) {
        const auto salt = static_cast<std::uint32_t>(seed * 1000 + step);
        const Signature sig =
            kind % 2 == 0 ? MakeSig(salt) : MakeGroupSig(salt, kind % 3);
        if (h.Add(sig, SignatureOrigin::kRemote, 1) >= 0) {
          contents.push_back(sig.ContentId());
        }
      } else if (kind < 60) {
        h.Disable(contents[rng.NextBounded(contents.size())]);
      } else if (kind < 80) {
        h.ReEnable(contents[rng.NextBounded(contents.size())]);
      } else {
        const std::size_t victim = rng.NextBounded(h.size());
        const Signature repl = MakeGroupSig(
            static_cast<std::uint32_t>(seed * 1000 + 500 + step), kind % 3);
        if (!h.ContainsContent(repl.ContentId())) {
          const std::uint64_t old =
              h.record(victim).sig.ContentId();
          h.Replace(victim, repl);
          std::erase(contents, old);
          contents.push_back(repl.ContentId());
        }
      }
      const auto changed = h.TakeChangedRecords();
      ASSERT_TRUE(changed.has_value());
      auto delta = AvoidanceIndex::Rebuild(*index, h, *changed, step);
      const auto full = AvoidanceIndex::Build(h, step);
      ExpectObservationallyEqual(*full, *delta, h, step);
      EXPECT_EQ(full->entries_reused(), 0u);
      // The key counts the runtime sizes its table from, before building.
      EXPECT_EQ(AvoidanceIndex::KeyCountAfter(*index, h, *changed),
                delta->key_count())
          << "step " << step;
      EXPECT_EQ(AvoidanceIndex::KeyCount(h), full->key_count())
          << "step " << step;
      // Every entry was either taken over from the previous snapshot (the
      // same object) or copied in for a record this step changed.
      std::size_t copied = 0;
      for (std::size_t i = 0; i < h.size(); ++i) {
        const auto* e = delta->EntryForRecord(i);
        if (e != nullptr && e != index->EntryForRecord(i)) ++copied;
      }
      EXPECT_EQ(delta->entries_reused() + copied, delta->size())
          << "step " << step;
      EXPECT_LE(copied, 1u) << "one mutation copies at most one entry";
      index = std::move(delta);
    }
    // Over a 60-mutation chain almost every record survives each step.
    EXPECT_GT(index->entries_reused(), 0u);
  }
}

TEST(AvoidanceIndexTest, DeltaRebuildReusesUnchangedEntries) {
  History h;
  for (std::uint32_t i = 0; i < 10; ++i) {
    h.Add(MakeSig(i), SignatureOrigin::kRemote, 1);
  }
  auto index = AvoidanceIndex::Build(h, 1);
  (void)h.TakeChangedRecords();  // the build covered these
  h.Add(MakeSig(100), SignatureOrigin::kRemote, 2);
  const auto delta = RebuildFromJournal(*index, h, 2);
  EXPECT_EQ(delta->entries_reused(), 10u);
  EXPECT_EQ(delta->size() - delta->entries_reused(), 1u);
  // Reuse is by identity, not by equal copies.
  EXPECT_EQ(index->EntryForRecord(0), delta->EntryForRecord(0));
}

TEST(AvoidanceIndexTest, UntouchedKeySlotsAreSharedAcrossRebuild) {
  History h;
  for (std::uint32_t i = 0; i < 50; ++i) {
    h.Add(MakeSig(i), SignatureOrigin::kRemote, 1);
  }
  auto index = AvoidanceIndex::Build(h, 1);
  (void)h.TakeChangedRecords();

  // One new signature touches only its own keys: every other slot of
  // the next snapshot must be the previous snapshot's object, not a
  // copy of it.
  const Signature added = MakeSig(777);
  h.Add(added, SignatureOrigin::kRemote, 2);
  const auto next = RebuildFromJournal(*index, h, 2);
  std::set<std::uint64_t> touched;
  for (const auto& e : added.entries()) touched.insert(e.outer.TopKey());
  std::size_t shared = 0;
  for (const std::uint64_t key : AllTopKeys(h)) {
    const auto* before = index->SlotForTopFrame(key);
    const auto* after = next->SlotForTopFrame(key);
    if (touched.count(key) > 0) {
      EXPECT_NE(after, nullptr);
      EXPECT_NE(before, after) << "a touched key's slot is rebuilt";
      continue;
    }
    EXPECT_EQ(before, after) << "key " << key;
    if (after != nullptr) ++shared;
  }
  EXPECT_EQ(shared, index->key_count());
  EXPECT_EQ(next->key_count(), index->key_count() + touched.size());
  EXPECT_EQ(next->EntryForRecord(50)->content_id, added.ContentId());
}

TEST(AvoidanceIndexTest, KeyStatsCarryAcrossUnrelatedDeltaRebuilds) {
  History h;
  const Signature tracked = MakeSig(1);
  h.Add(tracked, SignatureOrigin::kRemote, 1);
  auto index = AvoidanceIndex::Build(h, 1);
  (void)h.TakeChangedRecords();
  const std::uint64_t key = tracked.entries()[0].outer.TopKey();

  index->SlotForTopFrame(key)->stats->gate_hits = 7;

  // Unrelated mutation: the tracked key's candidates are unchanged, so
  // its stats object must be carried over (same pointer).
  h.Add(MakeSig(50), SignatureOrigin::kRemote, 2);
  const auto delta = RebuildFromJournal(*index, h, 2);
  ASSERT_NE(delta->SlotForTopFrame(key), nullptr);
  EXPECT_EQ(delta->SlotForTopFrame(key)->stats.get(),
            index->SlotForTopFrame(key)->stats.get());
  EXPECT_EQ(delta->SlotForTopFrame(key)->stats->gate_hits, 7u);

  // Mutating the key's own candidate set resets its adaptive state (the
  // "re-arm eagerly on index change" rule).
  h.Disable(tracked.ContentId());
  const auto gone = RebuildFromJournal(*delta, h, 3);
  EXPECT_EQ(gone->SlotForTopFrame(key), nullptr);
  h.ReEnable(tracked.ContentId());
  const auto back = RebuildFromJournal(*gone, h, 4);
  ASSERT_NE(back->SlotForTopFrame(key), nullptr);
  EXPECT_EQ(back->SlotForTopFrame(key)->stats->gate_hits, 0u)
      << "re-indexed key must start re-armed";
}

}  // namespace
}  // namespace communix::dimmunix
