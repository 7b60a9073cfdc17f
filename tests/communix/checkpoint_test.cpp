// Tests for the framed, checksummed checkpoint format (DB format v3):
// round-trips, the compact ≡ checkpoint-of-survivors invariant, and —
// the reason the frames exist — detection of every damage mode:
// truncation at and inside every frame boundary, bit corruption in any
// frame, trailing garbage, and unknown record flags all surface as a
// clean kDataLoss instead of a half-installed database.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "../testutil.hpp"
#include "communix/store/checkpoint.hpp"
#include "communix/store/signature_store.hpp"

namespace communix::store {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Flatten;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("ck.A", 6, F("ck.A", "s1", 100 + salt)),
              ChainStack("ck.A", 6, F("ck.A", "i1", 9100 + salt)),
              ChainStack("ck.B", 6, F("ck.B", "s2", 20300 + salt)),
              ChainStack("ck.B", 6, F("ck.B", "i2", 31400 + salt)));
}

std::vector<StoredSignature> MakeEntries(std::size_t n) {
  std::vector<StoredSignature> entries;
  for (std::size_t i = 0; i < n; ++i) {
    const Signature sig = MakeSig(static_cast<std::uint32_t>(i));
    StoredSignature e;
    BinaryWriter w;
    sig.Serialize(w);
    e.bytes = w.take();
    e.content_id = sig.ContentId();
    e.sender = 1 + i % 5;
    e.added_at = static_cast<TimePoint>(i);
    e.superseded = (i % 7 == 3);
    entries.push_back(std::move(e));
  }
  return entries;
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  const auto entries = MakeEntries(20);
  const auto blob = SerializeCheckpoint(
      777, std::span<const StoredSignature>(entries.data(), entries.size()));

  CheckpointData data;
  ASSERT_TRUE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                            blob.size()),
                              &data)
                  .ok());
  EXPECT_EQ(data.epoch, 777u);
  ASSERT_EQ(data.records.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = data.records[i].entry;
    EXPECT_EQ(e.bytes, entries[i].bytes) << i;
    EXPECT_EQ(e.content_id, entries[i].content_id) << i;
    EXPECT_EQ(e.sender, entries[i].sender) << i;
    EXPECT_EQ(e.added_at, entries[i].added_at) << i;
    EXPECT_EQ(e.superseded, entries[i].superseded)
        << "superseded flag must survive the round trip, index " << i;
    EXPECT_FALSE(data.records[i].tops.empty())
        << "tops are rebuilt at parse time";
  }
}

TEST(CheckpointTest, MultiFrameRoundTrip) {
  // More entries than one frame holds (kCheckpointFrameEntries = 512).
  const auto entries = MakeEntries(kCheckpointFrameEntries + 37);
  const auto blob = SerializeCheckpoint(
      9, std::span<const StoredSignature>(entries.data(), entries.size()));
  CheckpointData data;
  ASSERT_TRUE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                            blob.size()),
                              &data)
                  .ok());
  EXPECT_EQ(data.records.size(), entries.size());
}

TEST(CheckpointTest, TruncationAtEveryLengthIsDetected) {
  // Not a sampled check: EVERY proper prefix of the blob — which covers
  // every frame boundary and every mid-frame cut — must fail cleanly.
  const auto entries = MakeEntries(24);
  const auto blob = SerializeCheckpoint(
      5, std::span<const StoredSignature>(entries.data(), entries.size()));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    CheckpointData data;
    const Status s = ParseCheckpoint(
        std::span<const std::uint8_t>(blob.data(), len), &data);
    ASSERT_FALSE(s.ok()) << "accepted a truncation at " << len;
    ASSERT_TRUE(data.records.empty())
        << "output must stay untouched on failure, len " << len;
  }
}

TEST(CheckpointTest, BitCorruptionInEveryFrameIsDetected) {
  // Two frames' worth of entries; flip one byte at a stride across the
  // whole blob. Every flip must be caught (magic/version/header checks
  // up front, FNV-1a per frame, record validation inside).
  const auto entries = MakeEntries(kCheckpointFrameEntries + 10);
  const auto blob = SerializeCheckpoint(
      5, std::span<const StoredSignature>(entries.data(), entries.size()));
  std::size_t caught = 0, total = 0;
  for (std::size_t pos = 0; pos < blob.size(); pos += 97) {
    auto corrupt = blob;
    corrupt[pos] ^= 0x40;
    CheckpointData data;
    const Status s = ParseCheckpoint(
        std::span<const std::uint8_t>(corrupt.data(), corrupt.size()), &data);
    ++total;
    if (!s.ok()) ++caught;
  }
  EXPECT_EQ(caught, total) << "a single-bit flip went unnoticed";
}

TEST(CheckpointTest, TrailingGarbageIsRejected) {
  const auto entries = MakeEntries(4);
  auto blob = SerializeCheckpoint(
      5, std::span<const StoredSignature>(entries.data(), entries.size()));
  blob.push_back(0x00);
  CheckpointData data;
  EXPECT_FALSE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                             blob.size()),
                               &data)
                   .ok());
}

TEST(CheckpointTest, ZeroEntryCheckpointIsValid) {
  const auto blob =
      SerializeCheckpoint(31, std::span<const StoredSignature>());
  CheckpointData data;
  ASSERT_TRUE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                            blob.size()),
                              &data)
                  .ok());
  EXPECT_EQ(data.epoch, 31u);
  EXPECT_TRUE(data.records.empty());
}

// ---- store-level invariants over the format ----

class CheckpointStoreTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<SignatureStore> Make() const {
    StoreOptions opts;
    opts.backend = GetParam();
    opts.user_shards = 4;
    opts.dedup_shards = 4;
    return SignatureStore::Create(opts);
  }

  void Add(SignatureStore& store, std::uint32_t salt) {
    const Signature sig = MakeSig(salt);
    ASSERT_EQ(store.Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                        sig, 0, limits_),
              AddOutcome::kAccepted);
  }

  Limits limits_{.per_user_daily_limit = 1u << 20};
};

TEST_P(CheckpointStoreTest, SnapshotInstallEqualsOriginal) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 30; ++i) Add(*store, i);
  ASSERT_TRUE(store->MarkSuperseded(5));

  const auto blob =
      SerializeCheckpoint(store->epoch(), store->CaptureSnapshot());
  CheckpointData data;
  ASSERT_TRUE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                            blob.size()),
                              &data)
                  .ok());

  auto restored = Make();
  restored->InstallSnapshot(data.epoch, std::move(data.records));
  EXPECT_EQ(restored->epoch(), store->epoch());
  EXPECT_EQ(restored->size(), store->size());
  EXPECT_EQ(restored->superseded_count(), 1u)
      << "superseded marks survive transfer";
  EXPECT_EQ(Flatten(restored->ReadSince(0)), Flatten(store->ReadSince(0)));
  // Rebuilt dedup state keeps enforcing: a replayed signature is a dup.
  const Signature sig = MakeSig(0);
  EXPECT_EQ(restored->Add(9, 0, TopFrameSet(sig), sig.ContentId(), sig, 0,
                          limits_),
            AddOutcome::kDuplicate);
}

TEST_P(CheckpointStoreTest, CompactEqualsCheckpointOfSurvivors) {
  // The invariant Compact() documents: compacting in place must be
  // indistinguishable from checkpointing the survivors and installing
  // that checkpoint into a fresh store — same bytes, same dedup state.
  auto a = Make();
  auto b = Make();
  for (std::uint32_t i = 0; i < 25; ++i) {
    Add(*a, i);
    Add(*b, i);
  }
  for (const std::uint64_t idx : {2u, 3u, 11u, 24u}) {
    ASSERT_TRUE(a->MarkSuperseded(idx));
    ASSERT_TRUE(b->MarkSuperseded(idx));
  }

  ASSERT_EQ(a->Compact(), 4u);

  auto survivors = b->CaptureSnapshot();
  std::erase_if(survivors, [](const StoredSignature& e) {
    return e.superseded;
  });
  const auto blob = SerializeCheckpoint(
      1234, std::span<const StoredSignature>(survivors.data(),
                                             survivors.size()));
  CheckpointData data;
  ASSERT_TRUE(ParseCheckpoint(std::span<const std::uint8_t>(blob.data(),
                                                            blob.size()),
                              &data)
                  .ok());
  auto c = Make();
  c->InstallSnapshot(data.epoch, std::move(data.records));

  EXPECT_EQ(a->size(), c->size());
  EXPECT_EQ(a->superseded_count(), 0u);
  EXPECT_EQ(Flatten(a->ReadSince(0)), Flatten(c->ReadSince(0)))
      << "compact and snapshot-install diverged";
  // A signature whose only copy was dropped is open for re-adding in
  // both — compaction re-opens dedup identically.
  const Signature dropped = MakeSig(2);
  const auto ra = a->Add(9, 0, TopFrameSet(dropped), dropped.ContentId(),
                         dropped, 0, limits_);
  const auto rc = c->Add(9, 0, TopFrameSet(dropped), dropped.ContentId(),
                         dropped, 0, limits_);
  EXPECT_EQ(ra, rc);
  EXPECT_EQ(ra, AddOutcome::kAccepted);
}

TEST_P(CheckpointStoreTest, SaveIsV3AndCorruptFilesRefuseToLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_ckpt_v3.bin")
          .string();
  auto store = Make();
  for (std::uint32_t i = 0; i < 10; ++i) Add(*store, i);
  ASSERT_TRUE(store->SaveToFile(path).ok());

  // The file IS a v3 checkpoint blob — magic + version up front.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> head(8);
  in.read(head.data(), 8);
  std::uint32_t magic = 0, version = 0;
  std::memcpy(&magic, head.data(), 4);
  std::memcpy(&version, head.data() + 4, 4);
  EXPECT_EQ(magic, 0x434D5342u);  // "CMSB"
  EXPECT_EQ(version, 3u);

  // Corrupt one payload byte on disk: the load must fail with kDataLoss
  // and leave the target store untouched.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-5, std::ios::end);
  f.put(static_cast<char>(0xFF));
  f.close();
  auto victim = Make();
  Add(*victim, 99);
  const Status s = victim->LoadFromFile(path);
  EXPECT_EQ(s.code(), ErrorCode::kDataLoss);
  EXPECT_EQ(victim->size(), 1u) << "failed load must not wipe the store";
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Backends, CheckpointStoreTest,
                         ::testing::Values(Backend::kSharded,
                                           Backend::kMonolithic),
                         [](const auto& info) {
                           return info.param == Backend::kSharded
                                      ? "Sharded"
                                      : "Monolithic";
                         });

}  // namespace
}  // namespace communix::store
