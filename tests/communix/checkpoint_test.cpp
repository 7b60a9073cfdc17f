// Tests for the framed, checksummed DB file formats: v3, which still
// loads but is no longer written (the small v3 writer below builds its
// inputs), and v4, which SaveToFile writes. Round-trips, the compact ≡
// reset-frame-of-survivors invariant, and — the reason the frames exist —
// detection of every damage mode: truncation at and inside every frame
// boundary, bit corruption in any frame, trailing garbage, unknown record
// flags and record counts the bytes cannot hold all surface as a clean
// kDataLoss instead of a half-installed database or an aborted process.
// For the v4 file, which saves grow by appending frames: a final frame
// cut short loads as the whole frames before it, every bit flip is still
// kDataLoss, and exactly the changes that break the file's prefix
// relation to the live log cost a rewrite. Hand-built v1, v2 and v3
// files check that the older formats still load.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>

#include "../testutil.hpp"
#include "communix/store/checkpoint.hpp"
#include "communix/store/signature_store.hpp"
#include "util/fnv.hpp"

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

constexpr std::uint32_t kDbMagic = 0x434D5342;  // "CMSB"

/// The v3 header: magic, version, epoch, entry and frame counts, and a
/// checksum over the epoch and both counts.
BinaryWriter V3Header(std::uint64_t epoch, std::uint64_t total,
                      std::uint32_t frames) {
  BinaryWriter covered;
  covered.WriteU64(epoch);
  covered.WriteU64(total);
  covered.WriteU32(frames);
  BinaryWriter w;
  w.WriteU32(kDbMagic);
  w.WriteU32(3);
  w.WriteU64(epoch);
  w.WriteU64(total);
  w.WriteU32(frames);
  w.WriteU64(Fnv1a(std::span<const std::uint8_t>(covered.data())));
  return w;
}

/// A v3 DB file of `entries` under `epoch`, in the layout v3 wrote: the
/// header, then frames of up to kCheckpointFrameEntries records, each
/// behind its entry count, payload length and payload checksum.
std::vector<std::uint8_t> V3File(std::uint64_t epoch,
                                 const std::vector<StoredSignature>& entries) {
  const std::size_t n = entries.size();
  const auto frames = static_cast<std::uint32_t>(
      (n + kCheckpointFrameEntries - 1) / kCheckpointFrameEntries);
  BinaryWriter w = V3Header(epoch, n, frames);
  for (std::size_t base = 0; base < n; base += kCheckpointFrameEntries) {
    const std::size_t upto = std::min(n, base + kCheckpointFrameEntries);
    BinaryWriter payload;
    for (std::size_t i = base; i < upto; ++i) {
      payload.WriteU8(entries[i].superseded ? 1 : 0);
      payload.WriteU64(entries[i].sender);
      payload.WriteI64(entries[i].added_at);
      payload.WriteBytes(std::span<const std::uint8_t>(entries[i].bytes));
    }
    w.WriteU32(static_cast<std::uint32_t>(upto - base));
    w.WriteU32(static_cast<std::uint32_t>(payload.size()));
    w.WriteU64(Fnv1a(std::span<const std::uint8_t>(payload.data())));
    w.WriteRaw(std::span<const std::uint8_t>(payload.data()));
  }
  return w.take();
}

/// ParseDbFile over `bytes`.
Status Parse(const std::vector<std::uint8_t>& bytes, DbFileContents* out) {
  return ParseDbFile(std::span<const std::uint8_t>(bytes), out);
}

/// Every committed entry of `store`, its superseded flag folded in.
std::vector<StoredSignature> EntriesOf(const SignatureStore& store) {
  const auto log = store.log();
  std::vector<StoredSignature> out;
  log->Visit(0, log->size(), [&](std::uint64_t i, const EntryView& e) {
    out.push_back(ToStored(e));
    out.back().superseded = log->IsSuperseded(i);
  });
  return out;
}

void ExpectSameEntries(const std::vector<StoredSignature>& got,
                       const std::vector<StoredSignature>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].bytes, want[i].bytes) << i;
    EXPECT_EQ(got[i].content_id, want[i].content_id) << i;
    EXPECT_EQ(got[i].sender, want[i].sender) << i;
    EXPECT_EQ(got[i].added_at, want[i].added_at) << i;
    EXPECT_EQ(got[i].superseded, want[i].superseded) << i;
  }
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
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
  const auto blob = V3File(777, entries);

  DbFileContents file;
  ASSERT_TRUE(Parse(blob, &file).ok());
  EXPECT_FALSE(file.v4_bytes.has_value());
  const CheckpointData& data = file.snapshot;
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
  DbFileContents file;
  ASSERT_TRUE(Parse(V3File(9, entries), &file).ok());
  EXPECT_EQ(file.snapshot.records.size(), entries.size());
}

TEST(CheckpointTest, TruncationAtEveryLengthIsDetected) {
  // Not a sampled check: EVERY proper prefix of the file — which covers
  // every frame boundary and every mid-frame cut — must fail cleanly.
  const auto entries = MakeEntries(24);
  const auto blob = V3File(5, entries);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    DbFileContents file;
    const Status s =
        ParseDbFile(std::span<const std::uint8_t>(blob.data(), len), &file);
    ASSERT_EQ(s.code(), ErrorCode::kDataLoss)
        << "accepted a truncation at " << len;
    ASSERT_TRUE(file.snapshot.records.empty())
        << "output must stay untouched on failure, len " << len;
  }
}

TEST(CheckpointTest, BitCorruptionInEveryFrameIsDetected) {
  // Two frames' worth of entries; flip one byte at a stride across the
  // whole file. Every flip must be caught (magic/version/header checks
  // up front, FNV-1a per frame, record validation inside).
  const auto entries = MakeEntries(kCheckpointFrameEntries + 10);
  const auto blob = V3File(5, entries);
  std::size_t caught = 0, total = 0;
  for (std::size_t pos = 0; pos < blob.size(); pos += 97) {
    auto corrupt = blob;
    corrupt[pos] ^= 0x40;
    DbFileContents file;
    ++total;
    if (Parse(corrupt, &file).code() == ErrorCode::kDataLoss) ++caught;
  }
  EXPECT_EQ(caught, total) << "a single-bit flip went unnoticed";
}

TEST(CheckpointTest, TrailingGarbageIsRejected) {
  auto blob = V3File(5, MakeEntries(4));
  blob.push_back(0x00);
  DbFileContents file;
  EXPECT_EQ(Parse(blob, &file).code(), ErrorCode::kDataLoss);
}

/// The header of a hand-built DB file: magic, version, and for v2 the
/// epoch.
BinaryWriter LegacyHeader(std::uint32_t version, std::uint64_t epoch) {
  BinaryWriter w;
  w.WriteU32(kDbMagic);
  w.WriteU32(version);
  if (version == 2) w.WriteU64(epoch);
  return w;
}

/// A 16-byte v1 or 24-byte v2 file that claims 0xFFFFFFFF records.
std::vector<std::uint8_t> HostileLegacyFile(std::uint32_t version) {
  BinaryWriter w = LegacyHeader(version, 42);
  w.WriteU32(0xFFFFFFFFu);
  w.WriteU32(0);
  return w.take();
}

std::vector<std::vector<std::uint8_t>> HostileCountBlobs() {
  // The v3 header claims 2^40 entries, with a header checksum that is
  // correct for that count.
  return {HostileLegacyFile(1), HostileLegacyFile(2),
          V3Header(42, std::uint64_t{1} << 40, 1).take()};
}

TEST(CheckpointTest, HostileRecordCountsAreDataLoss) {
  // A count the remaining bytes cannot hold is refused before anything
  // is reserved for it, instead of aborting on a huge allocation.
  for (const auto& blob : HostileCountBlobs()) {
    DbFileContents file;
    EXPECT_EQ(Parse(blob, &file).code(), ErrorCode::kDataLoss)
        << "a " << blob.size() << "-byte file";
    EXPECT_TRUE(file.snapshot.records.empty());
  }
}

TEST(CheckpointTest, ZeroEntryCheckpointIsValid) {
  DbFileContents file;
  ASSERT_TRUE(Parse(V3File(31, {}), &file).ok());
  EXPECT_EQ(file.snapshot.epoch, 31u);
  EXPECT_TRUE(file.snapshot.records.empty());
}

// ---- store-level invariants over the format ----

class CheckpointStoreTest : public ::testing::Test {
 protected:
  static std::unique_ptr<SignatureStore> Make() {
    return SignatureStore::Create({});
  }

  void Add(SignatureStore& store, std::uint32_t salt) {
    const Signature sig = MakeSig(salt);
    ASSERT_EQ(store.Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                        sig, 0, limits_),
              AddOutcome::kAccepted);
  }

  Limits limits_{.per_user_daily_limit = 1u << 20};
};

TEST_F(CheckpointStoreTest, CompactEqualsResetFrameOfSurvivors) {
  // The invariant Compact() documents: compacting in place must be
  // indistinguishable from a fresh store that ingested the survivors as
  // one replicated reset frame — same bytes, same dedup state.
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

  auto survivors = EntriesOf(*b);
  std::erase_if(survivors, [](const StoredSignature& e) {
    return e.superseded;
  });
  auto c = Make();
  ASSERT_TRUE(c->IngestReplicated({1234, true, 0, std::move(survivors)}).ok());

  EXPECT_EQ(a->size(), c->size());
  EXPECT_EQ(a->superseded_count(), 0u);
  EXPECT_EQ(Flatten(a->ReadSince(0)), Flatten(c->ReadSince(0)))
      << "compact and the reset frame diverged";
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

TEST_F(CheckpointStoreTest, SaveIsV4AndCorruptFilesRefuseToLoad) {
  const std::string path = TempPath("communix_ckpt_v4.bin");
  auto store = Make();
  for (std::uint32_t i = 0; i < 10; ++i) Add(*store, i);
  ASSERT_TRUE(store->SaveToFile(path).ok());

  // The file is a v4 DB file — magic + version up front.
  std::ifstream in(path, std::ios::binary);
  std::vector<char> head(8);
  in.read(head.data(), 8);
  std::uint32_t magic = 0, version = 0;
  std::memcpy(&magic, head.data(), 4);
  std::memcpy(&version, head.data() + 4, 4);
  EXPECT_EQ(magic, 0x434D5342u);  // "CMSB"
  EXPECT_EQ(version, 4u);

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

TEST_F(CheckpointStoreTest, HostileCountFilesLeaveTheStoreUntouched) {
  const std::string path = TempPath("communix_ckpt_hostile.bin");
  auto store = Make();
  Add(*store, 1);
  const std::uint64_t epoch = store->epoch();
  for (const auto& blob : HostileCountBlobs()) {
    WriteFile(path, blob);
    EXPECT_EQ(store->LoadFromFile(path).code(), ErrorCode::kDataLoss);
    EXPECT_EQ(store->size(), 1u) << "failed load must not wipe the store";
    EXPECT_EQ(store->epoch(), epoch);
  }
  std::filesystem::remove(path);
}

/// A v1 or v2 DB file in the layout those versions wrote: the header, a
/// u32 count, then per record the u64 sender, the i64 timestamp, and
/// the u32 length and bytes of the signature. No flags, frames or
/// checksums.
std::vector<std::uint8_t> LegacyFile(
    std::uint32_t version, std::uint64_t epoch,
    const std::vector<StoredSignature>& entries) {
  BinaryWriter w = LegacyHeader(version, epoch);
  w.WriteU32(static_cast<std::uint32_t>(entries.size()));
  for (const StoredSignature& e : entries) {
    w.WriteU64(e.sender);
    w.WriteI64(e.added_at);
    w.WriteBytes(std::span<const std::uint8_t>(e.bytes));
  }
  return w.take();
}

TEST_F(CheckpointStoreTest, LegacyV1ToV3FilesLoad) {
  const std::string path = TempPath("communix_ckpt_legacy.bin");
  constexpr std::uint64_t kEpoch = 4242;
  const auto entries = MakeEntries(6);
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    WriteFile(path, version == 3 ? V3File(kEpoch, entries)
                                 : LegacyFile(version, kEpoch, entries));
    auto store = Make();
    ASSERT_TRUE(store->LoadFromFile(path).ok());

    const std::vector<StoredSignature> loaded = EntriesOf(*store);
    ASSERT_EQ(loaded.size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(loaded[i].bytes, entries[i].bytes) << i;
      EXPECT_EQ(loaded[i].content_id, entries[i].content_id) << i;
      EXPECT_EQ(loaded[i].sender, entries[i].sender) << i;
      EXPECT_EQ(loaded[i].added_at, entries[i].added_at) << i;
    }
    // v1 recorded no epoch, so the store adopts a fresh one; v2 and v3
    // keep the epoch in their header.
    if (version == 1) {
      EXPECT_NE(store->epoch(), 0u);
      EXPECT_NE(store->epoch(), kEpoch);
    } else {
      EXPECT_EQ(store->epoch(), kEpoch);
    }

    // Dedup and adjacency state were rebuilt from the file: entry 0
    // (MakeSig(0), sent by user 1) is a duplicate for anyone, and a
    // signature sharing two of its four top frames is adjacent for
    // user 1.
    const Signature dup = MakeSig(0);
    EXPECT_EQ(store->Add(9, 0, TopFrameSet(dup), dup.ContentId(), dup, 0,
                         limits_),
              AddOutcome::kDuplicate);
    const Signature adjacent =
        Sig2(ChainStack("ck.A", 6, F("ck.A", "s1", 100)),
             ChainStack("ck.A", 6, F("ck.A", "i1", 9100)),
             ChainStack("ck.C", 6, F("ck.C", "s3", 1)),
             ChainStack("ck.C", 6, F("ck.C", "i3", 2)));
    ASSERT_EQ(entries[0].sender, 1u);
    EXPECT_EQ(store->Add(1, 0, TopFrameSet(adjacent), adjacent.ContentId(),
                         adjacent, 0, limits_),
              AddOutcome::kAdjacent);

    // The next save writes v4.
    ASSERT_TRUE(store->SaveToFile(path).ok());
    const std::vector<std::uint8_t> saved = ReadFile(path);
    BinaryReader r(std::span<const std::uint8_t>(saved.data(), saved.size()));
    EXPECT_EQ(r.ReadU32(), kDbMagic);
    EXPECT_EQ(r.ReadU32(), 4u);
  }
  std::filesystem::remove(path);
}

// ---- the v4 file: saves append frames ----

class V4FileTest : public CheckpointStoreTest {
 protected:
  /// Three saves to `path`: a rewrite of 4 entries (entry 1 marked
  /// superseded), then two appends of one entry and one frame each.
  /// Records the file length and entry count after each save.
  std::unique_ptr<SignatureStore> SaveThreeTimes(const std::string& path) {
    auto store = Make();
    std::uint32_t salt = 0;
    for (const int batch : {4, 1, 1}) {
      for (int i = 0; i < batch; ++i) Add(*store, salt++);
      if (salt == 4) store->MarkSuperseded(1);
      EXPECT_TRUE(store->SaveToFile(path).ok());
      ends_.push_back(std::filesystem::file_size(path));
      sizes_.push_back(store->size());
    }
    EXPECT_EQ(store->persist_stats().rewrites, 1u)
        << "the second and third saves append";
    EXPECT_EQ(store->persist_stats().entries, 6u);
    EXPECT_EQ(store->persist_stats().superseded, 1u);
    return store;
  }

  /// A fresh store loaded from `path`.
  std::unique_ptr<SignatureStore> Reload(const std::string& path) {
    auto loaded = Make();
    EXPECT_TRUE(loaded->LoadFromFile(path).ok());
    return loaded;
  }

  std::vector<std::uint64_t> ends_;
  std::vector<std::uint64_t> sizes_;
};

TEST_F(V4FileTest, CutInsideTheLastTwoFramesLoadsTheWholeFramesBefore) {
  // A kill between two writes leaves a final frame cut short. Every cut
  // inside the last two frames loads the frames before it, and the next
  // save continues from what loaded: it never appends after the cut.
  const std::string path = TempPath("communix_v4_cut_src.bin");
  const std::string cut_path = TempPath("communix_v4_cut.bin");
  const auto store = SaveThreeTimes(path);
  const std::vector<std::uint8_t> file = ReadFile(path);
  ASSERT_EQ(file.size(), ends_[2]);
  const std::vector<StoredSignature> live = EntriesOf(*store);
  for (std::uint64_t len = ends_[0]; len < ends_[2]; ++len) {
    SCOPED_TRACE("cut at " + std::to_string(len));
    WriteFile(cut_path, std::vector<std::uint8_t>(
                            file.begin(), file.begin() + static_cast<
                                              std::ptrdiff_t>(len)));
    auto loaded = Reload(cut_path);
    const std::uint64_t whole = len < ends_[1] ? sizes_[0] : sizes_[1];
    ASSERT_EQ(loaded->size(), whole);
    ExpectSameEntries(EntriesOf(*loaded),
                      std::vector<StoredSignature>(
                          live.begin(),
                          live.begin() + static_cast<std::ptrdiff_t>(whole)));
    EXPECT_EQ(loaded->epoch(), store->epoch());

    Add(*loaded, 500);
    ASSERT_TRUE(loaded->SaveToFile(cut_path).ok());
    const auto reloaded = Reload(cut_path);
    ExpectSameEntries(EntriesOf(*reloaded), EntriesOf(*loaded));
    EXPECT_EQ(reloaded->epoch(), store->epoch());
  }
  std::filesystem::remove(path);
  std::filesystem::remove(cut_path);
}

TEST_F(V4FileTest, BitFlipAnywhereIsDataLossAndLeavesTheStoreUntouched) {
  // One flipped bit per byte, the bit rotating with the position. That
  // covers every frame's count and length: the frame header's own
  // checksum must catch a length that now runs past end of file, which
  // would otherwise pass for a cut-short tail.
  const std::string path = TempPath("communix_v4_flip_src.bin");
  const std::string flip_path = TempPath("communix_v4_flip.bin");
  (void)SaveThreeTimes(path);
  const std::vector<std::uint8_t> file = ReadFile(path);
  auto victim = Make();
  Add(*victim, 99);
  const std::uint64_t epoch = victim->epoch();
  for (std::size_t pos = 0; pos < file.size(); ++pos) {
    std::vector<std::uint8_t> corrupt = file;
    corrupt[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    WriteFile(flip_path, corrupt);
    ASSERT_EQ(victim->LoadFromFile(flip_path).code(), ErrorCode::kDataLoss)
        << "a flipped bit at byte " << pos << " went unnoticed";
    ASSERT_EQ(victim->size(), 1u) << "failed load must not wipe the store";
    ASSERT_EQ(victim->epoch(), epoch);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(flip_path);
}

TEST_F(V4FileTest, EachLineageChangeOrMarkCostsExactlyOneRewrite) {
  const std::string path = TempPath("communix_v4_rewrite.bin");
  struct Case {
    const char* name;
    std::function<void(SignatureStore&)> change;
  };
  // Loading an older file from the path the store saves to.
  const auto load = [&](std::vector<std::uint8_t> bytes) {
    return [&path, bytes](SignatureStore& store) {
      WriteFile(path, bytes);
      ASSERT_TRUE(store.LoadFromFile(path).ok());
    };
  };
  const std::vector<StoredSignature> legacy = MakeEntries(6);
  const std::vector<Case> cases = {
      {"Compact", [](SignatureStore& s) { EXPECT_EQ(s.Compact(), 0u); }},
      {"MarkSuperseded",
       [](SignatureStore& s) { EXPECT_TRUE(s.MarkSuperseded(3)); }},
      {"ReplicatedReset",
       [&](SignatureStore& s) {
         ASSERT_TRUE(s.IngestReplicated({4242, true, 0,
                                         {legacy.begin(), legacy.begin() + 3}})
                         .ok());
       }},
      {"LoadV1", load(LegacyFile(1, 0, legacy))},
      {"LoadV2", load(LegacyFile(2, 4242, legacy))},
      {"LoadV3", load(V3File(4343, legacy))},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::filesystem::remove(path);
    auto store = Make();
    for (std::uint32_t i = 0; i < 8; ++i) Add(*store, i);
    ASSERT_TRUE(store->SaveToFile(path).ok());
    Add(*store, 8);
    ASSERT_TRUE(store->SaveToFile(path).ok());
    ASSERT_EQ(store->persist_stats().rewrites, 1u) << "the second save appends";

    c.change(*store);
    ASSERT_TRUE(store->SaveToFile(path).ok());
    EXPECT_EQ(store->persist_stats().rewrites, 2u) << "the change rewrites";
    Add(*store, 100);
    Add(*store, 101);
    ASSERT_TRUE(store->SaveToFile(path).ok());
    EXPECT_EQ(store->persist_stats().rewrites, 2u) << "growth appends again";

    const auto reloaded = Reload(path);
    ExpectSameEntries(EntriesOf(*reloaded), EntriesOf(*store));
    EXPECT_EQ(reloaded->epoch(), store->epoch());
    EXPECT_EQ(reloaded->superseded_count(), store->superseded_count());
    EXPECT_EQ(store->persist_stats().entries, store->size());
    EXPECT_EQ(store->persist_stats().superseded, store->superseded_count());
  }
  std::filesystem::remove(path);
}

TEST_F(V4FileTest, LoadingAV4FileKeepsAppending) {
  const std::string path = TempPath("communix_v4_reload.bin");
  const auto store = SaveThreeTimes(path);
  auto loaded = Reload(path);
  Add(*loaded, 200);
  ASSERT_TRUE(loaded->SaveToFile(path).ok());
  EXPECT_EQ(loaded->persist_stats().rewrites, 0u);
  EXPECT_EQ(std::filesystem::file_size(path),
            ends_[2] + loaded->persist_stats().bytes_written);
  ExpectSameEntries(EntriesOf(*Reload(path)), EntriesOf(*loaded));
  std::filesystem::remove(path);
}

TEST_F(V4FileTest, SaveWithNothingNewLeavesTheFileByteIdentical) {
  const std::string path = TempPath("communix_v4_idle.bin");
  const auto store = SaveThreeTimes(path);
  const std::vector<std::uint8_t> before = ReadFile(path);
  const SignatureStore::PersistStats stats = store->persist_stats();
  ASSERT_TRUE(store->SaveToFile(path).ok());
  ASSERT_TRUE(store->SaveToFile(path).ok());
  EXPECT_EQ(ReadFile(path), before);
  EXPECT_EQ(store->persist_stats().bytes_written, stats.bytes_written);
  EXPECT_EQ(store->persist_stats().rewrites, stats.rewrites);
  std::filesystem::remove(path);
}

TEST_F(V4FileTest, AnotherWriterOfThePathForcesARewrite) {
  // A second store replaces the file. The first store must then rewrite
  // it, not append its next frames to the other store's file.
  const std::string path = TempPath("communix_v4_two_writers.bin");
  const auto first = SaveThreeTimes(path);
  auto second = Make();
  for (std::uint32_t i = 300; i < 303; ++i) Add(*second, i);
  ASSERT_TRUE(second->SaveToFile(path).ok());

  Add(*first, 400);
  ASSERT_TRUE(first->SaveToFile(path).ok());
  EXPECT_EQ(first->persist_stats().rewrites, 2u);
  const auto reloaded = Reload(path);
  ExpectSameEntries(EntriesOf(*reloaded), EntriesOf(*first));
  EXPECT_EQ(reloaded->epoch(), first->epoch());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace communix::store
