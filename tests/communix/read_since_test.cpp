// Tests for the store's GET read path, ReadSince: the count plus byte
// runs into the signature log's wire-format arena. Replies must match
// the reference model's reply byte for byte at every cursor, across
// arena block edges, and must stay valid and unchanged after the log
// they point into is swapped out or the store is destroyed.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>

#include "../testutil.hpp"
#include "communix/store/signature_store.hpp"
#include "reference_store.hpp"
#include "util/serde.hpp"

namespace communix::store {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Flatten;
using testutil::ReferenceStore;
using testutil::Sig2;

constexpr std::size_t kBlock = SignatureLog::kBlockBytes;

/// A signature unique per salt; `pad` lengthens one frame's method name,
/// adding exactly `pad` bytes to its serialized form.
Signature MakeSig(std::uint32_t salt, std::size_t pad = 0) {
  return Sig2(ChainStack("rc.A", 6,
                         F("rc.A", "s1" + std::string(pad, 'p'), 100 + salt)),
              ChainStack("rc.A", 6, F("rc.A", "i1", 9100 + salt)),
              ChainStack("rc.B", 6, F("rc.B", "s2", 20300 + salt)),
              ChainStack("rc.B", 6, F("rc.B", "i2", 31400 + salt)));
}

/// A signature whose GET wire encoding (u32 length + bytes) is exactly
/// `wire` bytes long.
Signature SigOfWireSize(std::uint32_t salt, std::size_t wire) {
  const std::size_t base = 4 + MakeSig(salt).ToBytes().size();
  return MakeSig(salt, wire - base);
}

/// The entries region of a reply (its runs, without the count).
std::vector<std::uint8_t> Entries(const SuffixReply& reply) {
  std::vector<std::uint8_t> flat;
  AppendRuns(reply.runs, &flat);
  return flat;
}

class ReadSinceTest : public ::testing::Test {
 protected:
  ReadSinceTest() { limits_.per_user_daily_limit = 1u << 20; }

  static std::unique_ptr<SignatureStore> Make() {
    return SignatureStore::Create({});
  }

  void Add(SignatureStore& store, std::uint32_t salt) {
    const Signature sig = MakeSig(salt);
    ASSERT_EQ(store.Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                        sig, 0, limits_),
              AddOutcome::kAccepted);
  }

  Limits limits_;
};

TEST_F(ReadSinceTest, EmptyCursorPollsReturnNoRuns) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 3; ++i) Add(*store, i);
  for (const std::uint64_t from : {3u, 99u}) {
    const SuffixReply reply = store->ReadSince(from);  // from >= size
    EXPECT_EQ(reply.count, 0u);
    EXPECT_TRUE(reply.runs.empty());
  }
}

TEST_F(ReadSinceTest, CompactRenumbersAndRepliesStayConsistent) {
  auto store = Make();
  for (std::uint32_t i = 0; i < 12; ++i) Add(*store, i);
  ASSERT_EQ(store->ReadSince(0).count, 12u);
  const std::uint64_t epoch_before = store->epoch();

  ASSERT_TRUE(store->MarkSuperseded(3));
  ASSERT_TRUE(store->MarkSuperseded(7));
  // Marks alone must not disturb cursors.
  EXPECT_EQ(store->ReadSince(0).count, 12u);

  EXPECT_EQ(store->Compact(), 2u);
  EXPECT_NE(store->epoch(), epoch_before) << "compaction is a new lineage";
  EXPECT_EQ(store->ReadSince(0).count, 10u);
  // The compacted log serves the survivors, in order.
  ReferenceStore expect(limits_);
  for (std::uint32_t i = 0; i < 12; ++i) {
    if (i != 3 && i != 7) {
      ASSERT_EQ(expect.Add(1 + i % 5, 0, MakeSig(i)), AddOutcome::kAccepted);
    }
  }
  EXPECT_EQ(Flatten(store->ReadSince(0)), expect.Get(0));
}

// The arena's edge cases against the reference model's reply: an entry
// ending exactly at a block boundary, a block sealed with slack, and an
// entry larger than a block, on a log of five blocks.
TEST(ArenaReadTest, BlockEdgesMatchTheModelAtEveryCursor) {
  auto arena = SignatureStore::Create({});
  Limits limits;
  limits.per_user_daily_limit = 1u << 20;
  ReferenceStore reference(limits);

  std::vector<std::size_t> wire_sizes;
  // Block 0: nine 100 KB entries, then one that ends exactly at the
  // block boundary.
  for (int i = 0; i < 9; ++i) wire_sizes.push_back(100'000);
  wire_sizes.push_back(kBlock - 9 * 100'000);
  // Block 1: ten 100 KB entries; the eleventh does not fit, so block 1
  // is sealed with slack and block 2 opens.
  for (int i = 0; i < 12; ++i) wire_sizes.push_back(100'000);
  // Block 3: an entry larger than a block gets a block of its own.
  wire_sizes.push_back(kBlock + 4'321);
  // Block 4: small entries after it.
  for (int i = 0; i < 5; ++i) wire_sizes.push_back(700 + 13 * i);

  for (std::size_t i = 0; i < wire_sizes.size(); ++i) {
    const auto salt = static_cast<std::uint32_t>(i);
    const Signature sig = SigOfWireSize(salt, wire_sizes[i]);
    ASSERT_EQ(4 + sig.ToBytes().size(), wire_sizes[i]);
    ASSERT_EQ(arena->Add(1 + salt % 5, 0, TopFrameSet(sig), sig.ContentId(),
                         sig, 0, limits),
              AddOutcome::kAccepted);
    ASSERT_EQ(reference.Add(1 + salt % 5, 0, sig), AddOutcome::kAccepted);
  }

  // GET(0) is one run per block, each exactly its block's entries: the
  // exact fit fills block 0, block 1 is sealed with slack, and the
  // oversized entry's block holds only that entry.
  std::vector<std::size_t> run_sizes;
  for (const ByteRun& run : arena->ReadSince(0).runs) {
    run_sizes.push_back(run.size);
  }
  std::size_t small = 0;
  for (int i = 0; i < 5; ++i) small += 700 + 13 * i;
  EXPECT_EQ(run_sizes, (std::vector<std::size_t>{kBlock, 1'000'000, 200'000,
                                                  kBlock + 4'321, small}));
  const std::uint64_t n = wire_sizes.size();
  for (std::uint64_t from = 0; from <= n + 1; ++from) {
    EXPECT_EQ(Flatten(arena->ReadSince(from)), reference.Get(from))
        << "from=" << from;
  }
  // A reply touches only the blocks from its cursor's block onwards.
  EXPECT_EQ(arena->ReadSince(9).runs.size(), 5u) << "the exact fit";
  EXPECT_EQ(arena->ReadSince(10).runs.size(), 4u) << "starts at block 1";
  EXPECT_EQ(arena->ReadSince(20).runs.size(), 3u) << "starts at block 2";
  EXPECT_EQ(arena->ReadSince(22).runs.size(), 2u) << "the oversized block";
  EXPECT_EQ(arena->ReadSince(23).runs.size(), 1u) << "only block 4";
}

// A reply pins the log it was read from: it keeps its bytes across the
// live log swaps, and after the store itself is gone.
enum class Swap { kReplicatedReset, kCompact };

class ReplyPinTest : public ::testing::TestWithParam<Swap> {};

TEST_P(ReplyPinTest, ReplyOutlivesLogSwapAndStore) {
  const Swap swap = GetParam();
  auto store = SignatureStore::Create({});
  Limits limits;
  limits.per_user_daily_limit = 1u << 20;
  for (std::uint32_t i = 0; i < 40; ++i) {
    const Signature sig = SigOfWireSize(i, 100'000);
    ASSERT_EQ(store->Add(1 + i % 5, 0, TopFrameSet(sig), sig.ContentId(), sig,
                         0, limits),
              AddOutcome::kAccepted);
  }
  ASSERT_TRUE(store->MarkSuperseded(5));

  const SuffixReply reply = store->ReadSince(3);
  const std::vector<std::uint8_t> before = Flatten(reply);
  ASSERT_EQ(reply.count, 37u);
  ASSERT_EQ(reply.runs.size(), 4u) << "a log of four arena blocks";

  switch (swap) {
    case Swap::kReplicatedReset:
      ASSERT_TRUE(store->IngestReplicated({4242, true, 0, {}}).ok());
      EXPECT_EQ(store->size(), 0u);
      break;
    case Swap::kCompact:
      EXPECT_EQ(store->Compact(), 1u);
      break;
  }
  // The swapped-in log serves new reads...
  EXPECT_NE(Flatten(store->ReadSince(3)), before);
  // ...while the old reply still reads the pre-swap bytes.
  EXPECT_EQ(Flatten(reply), before);
  store.reset();
  EXPECT_EQ(Flatten(reply), before) << "the reply outlives the store";
}

std::string PinCaseName(const ::testing::TestParamInfo<Swap>& info) {
  static constexpr const char* kSwaps[] = {"ReplicatedReset", "Compact"};
  return kSwaps[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Swaps, ReplyPinTest,
                         ::testing::Values(Swap::kReplicatedReset,
                                           Swap::kCompact),
                         PinCaseName);

/// Number of length-prefixed entries in an entries region, or -1 if it
/// does not parse to whole entries.
long CountEntries(const std::vector<std::uint8_t>& entries) {
  BinaryReader r(std::span<const std::uint8_t>(entries.data(), entries.size()));
  long count = 0;
  while (!r.AtEnd()) {
    (void)r.ReadBytes();
    if (!r.ok()) return -1;
    ++count;
  }
  return count;
}

TEST_F(ReadSinceTest, ConcurrentReadersAndWritersStayCoherent) {
  // Hammer ReadSince from two readers on the same cursor while ADDs
  // land: every reply must be internally consistent (its entries region
  // parses to exactly `count` entries) and a prefix of the log. The 8 KB
  // entries fill four arena blocks, so appends cross block boundaries
  // while the readers run. The signatures are built up front so the
  // ADDs land back to back, and the replies are checked as they arrive
  // against the serialized log. Run under TSAN via the communix test
  // binary.
  constexpr std::uint32_t kEntries = 400;
  std::vector<Signature> sigs;
  BinaryWriter log_bytes;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    sigs.push_back(SigOfWireSize(i, 8'000));
    const auto bytes = sigs.back().ToBytes();
    log_bytes.WriteBytes(
        std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
  const std::vector<std::uint8_t>& expected = log_bytes.data();
  ASSERT_GT(expected.size(), 3 * kBlock);
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
        const SuffixReply reply = store->ReadSince(0);
        const std::vector<std::uint8_t> entries = Entries(reply);
        if (CountEntries(entries) != static_cast<long>(reply.count)) {
          bad_count.fetch_add(1);
        }
        if (entries.size() > expected.size() ||
            !std::equal(entries.begin(), entries.end(), expected.begin())) {
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
      << "replies whose entries do not number exactly count";
  EXPECT_EQ(bad_prefix.load(), 0) << "replies that are not a log prefix";
  const SuffixReply final_reply = store->ReadSince(0);
  EXPECT_EQ(final_reply.count, kEntries);
  EXPECT_EQ(Entries(final_reply), expected);
}

}  // namespace
}  // namespace communix::store
