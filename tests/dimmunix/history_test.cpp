#include "dimmunix/history.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "../testutil.hpp"
#include "dimmunix/avoidance_index.hpp"

namespace communix::dimmunix {
namespace {

using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("h.A", 6, F("h.A", "s1", 10 + salt)),
              ChainStack("h.A", 6, F("h.A", "i1", 11 + salt)),
              ChainStack("h.B", 6, F("h.B", "s2", 20 + salt)),
              ChainStack("h.B", 6, F("h.B", "i2", 21 + salt)));
}

TEST(HistoryTest, AddAndDeduplicate) {
  History h;
  EXPECT_EQ(h.Add(MakeSig(0), SignatureOrigin::kLocal, 1), 0);
  EXPECT_EQ(h.Add(MakeSig(1), SignatureOrigin::kRemote, 2), 1);
  EXPECT_EQ(h.Add(MakeSig(0), SignatureOrigin::kLocal, 3), -1)
      << "identical content must deduplicate";
  EXPECT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.ContainsContent(MakeSig(0).ContentId()));
}

TEST(HistoryTest, RecordsKeepMetadata) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kRemote, 77);
  EXPECT_EQ(h.record(0).origin, SignatureOrigin::kRemote);
  EXPECT_EQ(h.record(0).added_at, 77);
  EXPECT_FALSE(h.record(0).disabled);
}

TEST(HistoryTest, FindByBugKey) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(5), SignatureOrigin::kLocal, 1);
  const auto hits = h.FindByBugKey(MakeSig(0).BugKey());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_TRUE(h.FindByBugKey(12345).empty());
}

TEST(HistoryTest, CandidatesIndexByOuterTop) {
  // The candidates-by-top-frame projection lives in AvoidanceIndex (the
  // runtime's published snapshot), built from the history.
  History h;
  const Signature s = MakeSig(0);
  h.Add(s, SignatureOrigin::kLocal, 1);
  const auto index = AvoidanceIndex::Build(h, 1);
  for (const auto& e : s.entries()) {
    const auto* cands = index->CandidatesForTopFrame(e.outer.TopKey());
    ASSERT_NE(cands, nullptr);
    ASSERT_EQ(cands->size(), 1u);
    EXPECT_EQ((*cands)[0].entry, index->EntryForRecord(0));
  }
  EXPECT_EQ(index->CandidatesForTopFrame(999), nullptr);
}

TEST(HistoryTest, DisableRemovesFromIndex) {
  History h;
  const Signature s = MakeSig(0);
  h.Add(s, SignatureOrigin::kLocal, 1);
  ASSERT_TRUE(h.Disable(s.ContentId()));
  EXPECT_TRUE(h.record(0).disabled);
  const auto disabled = AvoidanceIndex::Build(h, 1);
  EXPECT_EQ(disabled->CandidatesForTopFrame(s.entries()[0].outer.TopKey()),
            nullptr);
  ASSERT_TRUE(h.ReEnable(s.ContentId()));
  const auto enabled =
      AvoidanceIndex::Rebuild(*disabled, h, *h.TakeChangedRecords(), 2);
  EXPECT_NE(enabled->CandidatesForTopFrame(s.entries()[0].outer.TopKey()),
            nullptr);
}

TEST(HistoryTest, DisableUnknownFails) {
  History h;
  EXPECT_FALSE(h.Disable(42));
  EXPECT_FALSE(h.ReEnable(42));
}

TEST(HistoryTest, ReplaceSwapsContent) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  const Signature merged = MakeSig(9);
  h.Replace(0, merged);
  EXPECT_EQ(h.record(0).sig, merged);
  EXPECT_TRUE(h.ContainsContent(merged.ContentId()));
  EXPECT_FALSE(h.ContainsContent(MakeSig(0).ContentId()));
  // A rebuilt index follows the new content.
  const auto index = AvoidanceIndex::Build(h, 1);
  EXPECT_NE(index->CandidatesForTopFrame(merged.entries()[0].outer.TopKey()),
            nullptr);
}

TEST(HistoryTest, RetiredLedgerRecordsReplaceAndFreshDisable) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 2);
  EXPECT_EQ(h.retired_pending(), 0u) << "Add never feeds the ledger";

  // Replace retires the replaced content id (generalization superseded
  // it); Disable retires on the false→true transition only, so marking
  // an already-disabled signature again succeeds but enqueues nothing.
  h.Replace(0, MakeSig(9));
  ASSERT_TRUE(h.Disable(MakeSig(1).ContentId()));
  EXPECT_TRUE(h.Disable(MakeSig(1).ContentId()));
  EXPECT_EQ(h.retired_pending(), 2u);

  const auto drained = h.TakeRetiredContentIds();
  EXPECT_EQ(drained, (std::vector<std::uint64_t>{MakeSig(0).ContentId(),
                                                 MakeSig(1).ContentId()}));
  EXPECT_EQ(h.retired_pending(), 0u);
  EXPECT_TRUE(h.TakeRetiredContentIds().empty()) << "drain is destructive";

  // Replacing with identical content retires nothing — the history still
  // vouches for those bytes.
  h.Replace(0, MakeSig(9));
  EXPECT_EQ(h.retired_pending(), 0u);
}

TEST(HistoryTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_test.bin")
          .string();
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 10);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 20);
  h.Disable(MakeSig(1).ContentId());
  ASSERT_TRUE(h.SaveToFile(path).ok());

  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const History& l = loaded.value();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.record(0).sig, MakeSig(0));
  EXPECT_EQ(l.record(0).origin, SignatureOrigin::kLocal);
  EXPECT_EQ(l.record(0).added_at, 10);
  EXPECT_TRUE(l.record(1).disabled);
  std::remove(path.c_str());
}

TEST(HistoryTest, RoundTripSurvivesIndexRebuild) {
  // Save/Load must preserve `disabled` flags and SignatureOrigin, and an
  // AvoidanceIndex rebuilt from the loaded history must honor them: a
  // disabled signature contributes no candidates, an enabled one keeps
  // every (entry, position) pair.
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_index.bin")
          .string();
  History h;
  const Signature enabled_sig = MakeSig(0);
  const Signature disabled_sig = MakeSig(100);
  h.Add(enabled_sig, SignatureOrigin::kRemote, 5);
  h.Add(disabled_sig, SignatureOrigin::kLocal, 6);
  h.Disable(disabled_sig.ContentId());
  ASSERT_TRUE(h.SaveToFile(path).ok());

  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const History& l = loaded.value();
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.record(0).origin, SignatureOrigin::kRemote);
  EXPECT_EQ(l.record(1).origin, SignatureOrigin::kLocal);
  EXPECT_FALSE(l.record(0).disabled);
  EXPECT_TRUE(l.record(1).disabled);

  const auto index = AvoidanceIndex::Build(l, 7);
  EXPECT_EQ(index->version(), 7u);
  ASSERT_EQ(index->size(), 1u) << "disabled signature must not be indexed";
  ASSERT_NE(index->EntryForRecord(0), nullptr);
  EXPECT_EQ(index->EntryForRecord(0)->content_id, enabled_sig.ContentId());
  EXPECT_EQ(index->EntryForRecord(1), nullptr);
  for (const auto& e : enabled_sig.entries()) {
    const auto* cands = index->CandidatesForTopFrame(e.outer.TopKey());
    ASSERT_NE(cands, nullptr);
    EXPECT_EQ((*cands)[0].entry, index->EntryForRecord(0));
  }
  for (const auto& e : disabled_sig.entries()) {
    EXPECT_EQ(index->CandidatesForTopFrame(e.outer.TopKey()), nullptr);
  }

  // Re-enabling after load restores the candidates on the next rebuild.
  History mutated = l;
  ASSERT_TRUE(mutated.ReEnable(disabled_sig.ContentId()));
  const auto rebuilt = AvoidanceIndex::Build(mutated, 8);
  EXPECT_EQ(rebuilt->size(), 2u);
  for (const auto& e : disabled_sig.entries()) {
    EXPECT_NE(rebuilt->CandidatesForTopFrame(e.outer.TopKey()), nullptr);
  }
  std::remove(path.c_str());
}

TEST(HistoryTest, RecordsCarryTheirContentId) {
  const auto expect_cached = [](const History& h) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(h.record(i).content_id, h.record(i).sig.ContentId()) << i;
    }
  };
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 2);
  expect_cached(h);
  h.Replace(0, MakeSig(9));
  expect_cached(h);
  ASSERT_TRUE(h.Disable(MakeSig(1).ContentId()));
  expect_cached(h);
  ASSERT_TRUE(h.ReEnable(MakeSig(1).ContentId()));
  expect_cached(h);
  ASSERT_NE(h.FindContent(MakeSig(9).ContentId()), nullptr);
  EXPECT_EQ(h.FindContent(MakeSig(9).ContentId()), &h.record(0));
  EXPECT_EQ(h.FindContent(MakeSig(0).ContentId()), nullptr);

  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_cid.bin")
          .string();
  ASSERT_TRUE(h.SaveToFile(path).ok());
  auto loaded = History::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 2u);
  expect_cached(loaded.value());
  std::remove(path.c_str());
}

TEST(HistoryTest, ChangeJournalNamesTouchedRecordsUntilCopied) {
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  h.Add(MakeSig(1), SignatureOrigin::kRemote, 2);
  EXPECT_EQ(h.TakeChangedRecords(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(h.TakeChangedRecords(), std::vector<std::size_t>{})
      << "drain is destructive";
  h.Replace(1, MakeSig(5));
  h.Disable(MakeSig(0).ContentId());
  h.ReEnable(MakeSig(0).ContentId());
  EXPECT_EQ(h.TakeChangedRecords(), (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(h.Add(MakeSig(5), SignatureOrigin::kLocal, 3), -1);
  EXPECT_EQ(h.TakeChangedRecords(), std::vector<std::size_t>{})
      << "a duplicate Add changes nothing";

  // A History assigned whole cannot describe its change as a diff.
  History other;
  other.Add(MakeSig(7), SignatureOrigin::kLocal, 4);
  h = other;
  EXPECT_EQ(h.TakeChangedRecords(), std::nullopt);
  EXPECT_EQ(h.TakeChangedRecords(), std::vector<std::size_t>{});
  History copy = h;
  EXPECT_EQ(copy.TakeChangedRecords(), std::nullopt);
}

TEST(HistoryTest, LoadMissingFileFails) {
  auto r = History::LoadFromFile("/nonexistent/path/history.bin");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
}

TEST(HistoryTest, LoadCorruptFileFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_corrupt.bin")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a history file", f);
    std::fclose(f);
  }
  auto r = History::LoadFromFile(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(HistoryTest, TruncatedFileFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_hist_trunc.bin")
          .string();
  History h;
  h.Add(MakeSig(0), SignatureOrigin::kLocal, 1);
  ASSERT_TRUE(h.SaveToFile(path).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto r = History::LoadFromFile(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace communix::dimmunix
