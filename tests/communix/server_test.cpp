#include "communix/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "net/inproc.hpp"
#include "util/rng.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("srv.A", 6, F("srv.A", "s1", 100 + salt)),
              ChainStack("srv.A", 6, F("srv.A", "i1", 200 + salt)),
              ChainStack("srv.B", 6, F("srv.B", "s2", 300 + salt)),
              ChainStack("srv.B", 6, F("srv.B", "i2", 400 + salt)));
}

class ServerTest : public ::testing::Test {
 protected:
  VirtualClock clock_;
  CommunixServer server_{clock_};
  UserToken token_ = server_.IssueToken(1);
};

TEST_F(ServerTest, AcceptsValidSignature) {
  EXPECT_TRUE(server_.AddSignature(token_, MakeSig(0)).ok());
  EXPECT_EQ(server_.db_size(), 1u);
  EXPECT_EQ(server_.GetStats().adds_accepted, 1u);
}

TEST_F(ServerTest, RejectsForgedToken) {
  UserToken forged{};
  forged[0] = 0xAA;
  const Status s = server_.AddSignature(forged, MakeSig(0));
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(server_.db_size(), 0u);
  EXPECT_EQ(server_.GetStats().rejected_bad_token, 1u);
}

TEST_F(ServerTest, RejectsSingleThreadSignature) {
  std::vector<dimmunix::SignatureEntry> one;
  one.push_back({ChainStack("x.A", 6, F("x.A", "s", 1)),
                 ChainStack("x.A", 6, F("x.A", "i", 2))});
  const Status s = server_.AddSignature(token_, Signature(std::move(one)));
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST_F(ServerTest, DeduplicatesContent) {
  ASSERT_TRUE(server_.AddSignature(token_, MakeSig(0)).ok());
  const Status s = server_.AddSignature(token_, MakeSig(0));
  EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(server_.db_size(), 1u);
}

TEST_F(ServerTest, RateLimitTenPerDay) {
  // Use disjoint top frames per signature so the adjacency check never
  // fires: salt spacing of 1000 guarantees disjoint line numbers.
  int accepted = 0;
  for (int i = 0; i < 15; ++i) {
    if (server_.AddSignature(token_, MakeSig(1000 * (i + 1))).ok()) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 10) << "the 11th signature of the day is ignored";
  EXPECT_EQ(server_.GetStats().rejected_rate_limited, 5u);

  // Next day the quota resets.
  clock_.AdvanceDays(1.0);
  EXPECT_TRUE(server_.AddSignature(token_, MakeSig(99'000)).ok());
}

TEST_F(ServerTest, RateLimitIsPerUser) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server_.AddSignature(token_, MakeSig(1000 * (i + 1))).ok());
  }
  EXPECT_FALSE(server_.AddSignature(token_, MakeSig(50'000)).ok());
  // A different user is unaffected.
  const UserToken token2 = server_.IssueToken(2);
  EXPECT_TRUE(server_.AddSignature(token2, MakeSig(60'000)).ok());
}

TEST_F(ServerTest, RejectsAdjacentSignatureFromSameUser) {
  // S and S' share the outer top frame of thread 1 but differ elsewhere
  // => "some but not all" top frames common => adjacent => rejected.
  const auto shared_top = F("srv.A", "s1", 100);
  const Signature s1 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 200)),
                            ChainStack("srv.B", 6, F("srv.B", "s2", 300)),
                            ChainStack("srv.B", 6, F("srv.B", "i2", 400)));
  const Signature s2 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 201)),
                            ChainStack("srv.C", 6, F("srv.C", "s3", 500)),
                            ChainStack("srv.C", 6, F("srv.C", "i3", 600)));
  ASSERT_TRUE(server_.AddSignature(token_, s1).ok());
  const Status rejected = server_.AddSignature(token_, s2);
  EXPECT_EQ(rejected.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(server_.GetStats().rejected_adjacent, 1u);
}

TEST_F(ServerTest, AllowsSameBugDifferentManifestationFromSameUser) {
  // Identical top frames (same deadlock bug) are NOT "adjacent".
  const Signature m1 =
      Sig2(testutil::Stack({F("p.C1", "r", 1), F("srv.A", "s1", 100)}),
           testutil::Stack({F("p.C1", "r", 2), F("srv.A", "i1", 200)}),
           testutil::Stack({F("q.C1", "r", 1), F("srv.B", "s2", 300)}),
           testutil::Stack({F("q.C1", "r", 2), F("srv.B", "i2", 400)}));
  const Signature m2 =
      Sig2(testutil::Stack({F("p.C2", "g", 9), F("srv.A", "s1", 100)}),
           testutil::Stack({F("p.C2", "g", 8), F("srv.A", "i1", 200)}),
           testutil::Stack({F("q.C2", "g", 7), F("srv.B", "s2", 300)}),
           testutil::Stack({F("q.C2", "g", 6), F("srv.B", "i2", 400)}));
  EXPECT_TRUE(server_.AddSignature(token_, m1).ok());
  EXPECT_TRUE(server_.AddSignature(token_, m2).ok());
}

TEST_F(ServerTest, AdjacentAllowedFromDifferentUsers) {
  const UserToken token2 = server_.IssueToken(2);
  const auto shared_top = F("srv.A", "s1", 100);
  const Signature s1 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 200)),
                            ChainStack("srv.B", 6, F("srv.B", "s2", 300)),
                            ChainStack("srv.B", 6, F("srv.B", "i2", 400)));
  const Signature s2 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 201)),
                            ChainStack("srv.C", 6, F("srv.C", "s3", 500)),
                            ChainStack("srv.C", 6, F("srv.C", "i3", 600)));
  ASSERT_TRUE(server_.AddSignature(token_, s1).ok());
  EXPECT_TRUE(server_.AddSignature(token2, s2).ok())
      << "the adjacency restriction is per-user (§III-C2)";
}

TEST_F(ServerTest, AdjacencyCheckCanBeDisabled) {
  CommunixServer::Options opts;
  opts.adjacency_check_enabled = false;
  CommunixServer server(clock_, opts);
  const UserToken token = server.IssueToken(1);
  const auto shared_top = F("srv.A", "s1", 100);
  const Signature s1 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 200)),
                            ChainStack("srv.B", 6, F("srv.B", "s2", 300)),
                            ChainStack("srv.B", 6, F("srv.B", "i2", 400)));
  const Signature s2 = Sig2(ChainStack("srv.A", 6, shared_top),
                            ChainStack("srv.A", 6, F("srv.A", "i1", 201)),
                            ChainStack("srv.C", 6, F("srv.C", "s3", 500)),
                            ChainStack("srv.C", 6, F("srv.C", "i3", 600)));
  ASSERT_TRUE(server.AddSignature(token, s1).ok());
  EXPECT_TRUE(server.AddSignature(token, s2).ok());
}

TEST_F(ServerTest, GetSinceReturnsSuffix) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server_.AddSignature(token_, MakeSig(1000 * (i + 1))).ok());
  }
  EXPECT_EQ(server_.GetSince(0).size(), 5u);
  EXPECT_EQ(server_.GetSince(3).size(), 2u);
  EXPECT_EQ(server_.GetSince(5).size(), 0u);
  EXPECT_EQ(server_.GetSince(99).size(), 0u);
  // Returned bytes deserialize back to the accepted signatures.
  const auto all = server_.GetSince(0);
  const auto sig = Signature::FromBytes(
      std::span<const std::uint8_t>(all[0].data(), all[0].size()));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(*sig, MakeSig(1000));
}

TEST_F(ServerTest, WireProtocolAddAndGet) {
  net::InprocTransport transport(server_);

  // ADD over the wire.
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  MakeSig(0).Serialize(w);
  net::Request add;
  add.type = net::MsgType::kAddSignature;
  add.payload = w.take();
  auto add_result = transport.Call(add);
  ASSERT_TRUE(add_result.ok());
  EXPECT_TRUE(add_result.value().ok()) << add_result.value().error;

  // GET(0) over the wire.
  net::Request get;
  get.type = net::MsgType::kGetSignatures;
  BinaryWriter gw;
  gw.WriteU64(0);
  get.payload = gw.take();
  auto get_result = transport.Call(get);
  ASSERT_TRUE(get_result.ok());
  BinaryReader r(std::span<const std::uint8_t>(
      get_result.value().payload.data(), get_result.value().payload.size()));
  EXPECT_EQ(r.ReadU32(), 1u);
  const auto bytes = r.ReadBytes();
  const auto sig = Signature::FromBytes(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(*sig, MakeSig(0));
}

TEST_F(ServerTest, WireProtocolIssueId) {
  net::InprocTransport transport(server_);
  net::Request req;
  req.type = net::MsgType::kIssueId;
  BinaryWriter w;
  w.WriteU64(42);
  req.payload = w.take();
  auto result = transport.Call(req);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().payload.size(), 16u);
  UserToken token;
  std::copy(result.value().payload.begin(), result.value().payload.end(),
            token.begin());
  EXPECT_EQ(token, server_.IssueToken(42));
}

TEST_F(ServerTest, WireProtocolRejectsMalformedAdd) {
  net::InprocTransport transport(server_);
  net::Request add;
  add.type = net::MsgType::kAddSignature;
  add.payload = {1, 2, 3};  // far too short
  auto result = transport.Call(add);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().code, ErrorCode::kInvalidArgument);
}

TEST_F(ServerTest, AddBatchMatchesSequentialAdds) {
  const std::vector<Signature> sigs = {MakeSig(1000), MakeSig(2000),
                                       MakeSig(1000), MakeSig(3000)};
  const auto statuses = server_.AddBatch(
      token_, std::span<const Signature>(sigs.data(), sigs.size()));
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(statuses[2].code(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(server_.db_size(), 3u);
  const auto stats = server_.GetStats();
  EXPECT_EQ(stats.adds_accepted, 3u);
  EXPECT_EQ(stats.adds_duplicate, 1u);
}

TEST_F(ServerTest, AddBatchBadTokenRejectsEveryItem) {
  UserToken forged{};
  forged[0] = 0xAA;
  const std::vector<Signature> sigs = {MakeSig(1000), MakeSig(2000)};
  const auto statuses = server_.AddBatch(
      forged, std::span<const Signature>(sigs.data(), sigs.size()));
  ASSERT_EQ(statuses.size(), 2u);
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  }
  EXPECT_EQ(server_.db_size(), 0u);
  EXPECT_EQ(server_.GetStats().rejected_bad_token, 2u);
}

TEST_F(ServerTest, WireProtocolAddBatch) {
  net::InprocTransport transport(server_);
  std::vector<std::vector<std::uint8_t>> serialized;
  for (std::uint32_t salt : {1000u, 2000u, 1000u}) {
    serialized.push_back(MakeSig(salt).ToBytes());
  }
  const net::Request req = net::BuildAddBatchRequest(
      std::span<const std::uint8_t>(token_.data(), token_.size()),
      std::span<const std::vector<std::uint8_t>>(serialized.data(),
                                                 serialized.size()));
  auto result = transport.Call(req);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().ok()) << result.value().error;
  const auto codes = net::ParseAddBatchResponse(result.value());
  ASSERT_TRUE(codes.has_value());
  ASSERT_EQ(codes->size(), 3u);
  EXPECT_EQ((*codes)[0], ErrorCode::kOk);
  EXPECT_EQ((*codes)[1], ErrorCode::kOk);
  EXPECT_EQ((*codes)[2], ErrorCode::kAlreadyExists);
  EXPECT_EQ(server_.db_size(), 2u);
}

TEST_F(ServerTest, WireProtocolRejectsMalformedAddBatch) {
  net::InprocTransport transport(server_);
  // Truncated: claims 2 signatures, carries half of one.
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  w.WriteU32(2);
  w.WriteU32(1000);  // bogus length prefix with no body
  net::Request req;
  req.type = net::MsgType::kAddBatch;
  req.payload = w.take();
  auto result = transport.Call(req);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(server_.db_size(), 0u);
  EXPECT_EQ(server_.GetStats().rejected_malformed, 1u);
}

TEST_F(ServerTest, RejectionPathsAreLockFreeAndCounted) {
  // Regression for the seed's lock-taking early exits: each rejection
  // path must bump exactly its own counter.
  UserToken forged{};
  forged[7] = 0x11;
  (void)server_.AddSignature(forged, MakeSig(0));

  std::vector<dimmunix::SignatureEntry> one;
  one.push_back({ChainStack("x.A", 6, F("x.A", "s", 1)),
                 ChainStack("x.A", 6, F("x.A", "i", 2))});
  (void)server_.AddSignature(token_, Signature(std::move(one)));

  const auto stats = server_.GetStats();
  EXPECT_EQ(stats.rejected_bad_token, 1u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
  EXPECT_EQ(stats.adds_accepted, 0u);
}

TEST_F(ServerTest, ConcurrentAddsAndGetsAreSafe) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> accepted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const UserToken tok =
          server_.IssueToken(static_cast<UserId>(100 + t));
      for (int i = 0; i < 10; ++i) {
        if (server_
                .AddSignature(
                    tok, MakeSig(static_cast<std::uint32_t>(
                             100'000 + t * 10'000 + i * 100)))
                .ok()) {
          accepted.fetch_add(1);
        }
        (void)server_.GetSince(0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(accepted.load(), kThreads * 10);
  EXPECT_EQ(server_.db_size(), static_cast<std::uint64_t>(kThreads * 10));
}

// ---------------------------------------------------------------------------
// Malformed kAddBatch wire frames: the parse helpers must reject every
// truncation/corruption and the server must stay fully alive afterwards.
// ---------------------------------------------------------------------------

class MalformedBatchTest : public ServerTest {
 protected:
  net::Response Send(std::vector<std::uint8_t> payload) {
    net::Request req;
    req.type = net::MsgType::kAddBatch;
    req.payload = std::move(payload);
    return server_.Handle(req);
  }

  /// Ping + a fresh valid ADD must still work (no poisoned state).
  void ExpectServerAlive() {
    net::Request ping;
    ping.type = net::MsgType::kPing;
    EXPECT_TRUE(server_.Handle(ping).ok());
    EXPECT_TRUE(
        server_.AddSignature(token_, MakeSig(alive_salt_ += 1000)).ok());
  }

  std::uint32_t alive_salt_ = 50'000;
};

TEST_F(MalformedBatchTest, EmptyPayload) {
  EXPECT_EQ(Send({}).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, TruncatedToken) {
  BinaryWriter w;
  const std::vector<std::uint8_t> half(8, 0xAB);
  w.WriteRaw(std::span<const std::uint8_t>(half.data(), half.size()));
  EXPECT_EQ(Send(w.take()).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, CountWithoutSignatures) {
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  w.WriteU32(3);  // promises three signatures, delivers none
  EXPECT_EQ(Send(w.take()).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, HostileCountCannotForceAllocation) {
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  w.WriteU32(0xFFFFFFFFu);
  // Must be rejected by the count <= remaining/4 guard, not by running
  // out of memory on a reserve.
  EXPECT_EQ(Send(w.take()).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, TruncatedSignatureBytes) {
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  w.WriteU32(1);
  w.WriteU32(100);  // length prefix promising 100 bytes...
  w.WriteU8(0x42);  // ...followed by one
  EXPECT_EQ(Send(w.take()).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, GarbageSignatureContent) {
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token_.data(), token_.size()));
  w.WriteU32(1);
  const std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  w.WriteBytes(std::span<const std::uint8_t>(junk.data(), junk.size()));
  EXPECT_EQ(Send(w.take()).code, ErrorCode::kInvalidArgument);
  ExpectServerAlive();
}

TEST_F(MalformedBatchTest, TrailingGarbageAfterValidBatch) {
  const std::vector<std::vector<std::uint8_t>> sigs = {
      MakeSig(1).ToBytes()};
  net::Request req = net::BuildAddBatchRequest(
      std::span<const std::uint8_t>(token_.data(), token_.size()),
      std::span<const std::vector<std::uint8_t>>(sigs.data(), sigs.size()));
  req.payload.push_back(0x99);
  EXPECT_EQ(server_.Handle(req).code, ErrorCode::kInvalidArgument);
  EXPECT_EQ(server_.db_size(), 0u) << "no partial install from a bad frame";
  ExpectServerAlive();
}

// ---------------------------------------------------------------------------
// Wire-level GET scans racing concurrent batch appends: every reply must
// parse completely, carry exactly its count prefix, and contain only
// fully-committed, deserializable signatures.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, GetScansRaceConcurrentBatchAppends) {
  constexpr int kBatches = 40;
  constexpr int kPerBatch = 5;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_count = 0;
      while (!done.load(std::memory_order_acquire)) {
        net::Request req;
        req.type = net::MsgType::kGetSignatures;
        BinaryWriter w;
        w.WriteU64(0);
        req.payload = w.take();
        const net::Response resp = server_.Handle(req);
        if (!resp.ok()) {
          violations.fetch_add(1);
          continue;
        }
        // Direct Handle() replies carry the entries region as a
        // zero-copy segment; flatten before parsing (transports do this
        // on the wire).
        const auto flat = resp.FlattenedPayload();
        BinaryReader pr(
            std::span<const std::uint8_t>(flat.data(), flat.size()));
        const std::uint32_t count = pr.ReadU32();
        std::uint32_t parsed = 0;
        for (std::uint32_t i = 0; i < count; ++i) {
          const auto bytes = pr.ReadBytes();
          if (!pr.ok() ||
              !Signature::FromBytes(std::span<const std::uint8_t>(
                  bytes.data(), bytes.size()))) {
            violations.fetch_add(1);
            break;
          }
          ++parsed;
        }
        if (parsed == count && !pr.AtEnd()) violations.fetch_add(1);
        if (count < last_count) violations.fetch_add(1);  // log is append-only
        last_count = count;
      }
    });
  }

  std::uint32_t salt = 0;
  for (int b = 0; b < kBatches; ++b) {
    // One user per batch so the 10/day rate limit never throttles the
    // append stream the readers race against.
    const UserToken tok = server_.IssueToken(static_cast<UserId>(2000 + b));
    std::vector<Signature> batch;
    for (int i = 0; i < kPerBatch; ++i) {
      batch.push_back(MakeSig(200'000 + 100 * salt++));
    }
    const auto statuses = server_.AddBatch(
        tok, std::span<const Signature>(batch.data(), batch.size()));
    for (const Status& s : statuses) EXPECT_TRUE(s.ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(server_.db_size(),
            static_cast<std::uint64_t>(kBatches * kPerBatch));
}

// ---------------------------------------------------------------------------
// Zero-copy reply accounting: a repeat-poll GET workload must serve the
// entries region as shared segments (runs into the log's arena) and copy
// only the 4-byte count prefix per request. This is the structural proof
// that the wire tier never re-memcpys O(db) per connection.
// ---------------------------------------------------------------------------
TEST(ZeroCopyReplyTest, GetsCopyOnlyTheCountPrefix) {
  VirtualClock clock;
  CommunixServer::Options opts;
  opts.per_user_daily_limit = 1000;
  CommunixServer server(clock, opts);

  constexpr std::uint32_t kSigs = 50;
  for (std::uint32_t i = 0; i < kSigs; ++i) {
    ASSERT_TRUE(server
                    .AddSignature(server.IssueToken(7000 + i),
                                  MakeSig(700'000 + i * 11))
                    .ok());
  }

  const auto poll = [&] {
    net::Request req;
    req.type = net::MsgType::kGetSignatures;
    BinaryWriter w;
    w.WriteU64(0);
    req.payload = w.take();
    return server.Handle(req);
  };

  // The first poll's size calibrates the pin.
  const net::Response first = poll();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.payload.size(), 4u)
      << "only the u32 count prefix is owned per request";
  ASSERT_EQ(first.segments.size(), 1u);
  const std::size_t entry_bytes = first.payload_size() - 4;
  ASSERT_GT(entry_bytes, 10'000u) << "50 signatures are tens of KB";

  constexpr std::uint64_t kPolls = 100;
  for (std::uint64_t i = 0; i < kPolls; ++i) {
    const net::Response resp = poll();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.payload.size(), 4u);
  }

  const auto stats = server.GetStats();
  EXPECT_EQ(stats.gets_served, kPolls + 1);
  // Exactly 4 copied bytes per GET; everything else rode as a shared
  // segment. (ADDs went through the direct API, so GETs are the only
  // Handle() replies in the ledger.)
  EXPECT_EQ(stats.reply_bytes_copied, 4u * (kPolls + 1));
  EXPECT_EQ(stats.reply_bytes_shared, entry_bytes * (kPolls + 1));
  EXPECT_GT(stats.reply_bytes_shared, 100u * stats.reply_bytes_copied)
      << "shared must dwarf copied under repeat polls";

  // And the flattened bytes are exactly the legacy flat encoding: the
  // segment split is invisible to every parser.
  const auto flat = first.FlattenedPayload();
  BinaryReader r(std::span<const std::uint8_t>(flat.data(), flat.size()));
  EXPECT_EQ(r.ReadU32(), kSigs);
  const net::Response again = poll();
  EXPECT_EQ(again.FlattenedPayload(), flat);
  EXPECT_EQ(again.Serialize(), first.Serialize());
}

// GetStats (and the kStats snapshot behind it) must never tear the ADD
// ledger: every snapshot satisfies sum(outcome counters) <=
// adds_processed, even while writers are mid-flight between bumping the
// total and bumping the outcome. The server guarantees this by bumping
// adds_processed first on the write side and reading it last on the
// read side (see the ordering note in obs/metrics.hpp).
TEST(ServerStatsTearingTest, OutcomesNeverExceedAddsProcessed) {
  VirtualClock clock;
  CommunixServer server(clock);
  const UserToken token = server.IssueToken(1);
  const Signature sig = MakeSig(0);

  // Seed the one accept sequentially (on a single-core host the writer
  // threads may not be scheduled at all before the reader finishes, so
  // the accept must not depend on them running). Every subsequent call
  // lands in a deterministic AddDecoded outcome (duplicate or, once the
  // daily quota charges attempts, rate-limited) — cheap, valid churn
  // that exercises exactly the total-then-outcome write protocol.
  ASSERT_TRUE(server.AddSignature(token, sig).ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)server.AddSignature(token, sig);
      }
    });
  }

  auto outcome_sum = [](const CommunixServer::Stats& s) {
    return s.adds_accepted + s.adds_duplicate + s.rejected_rate_limited +
           s.rejected_tenant_quota + s.rejected_adjacent +
           s.rejected_malformed;
  };
  for (int i = 0; i < 300; ++i) {
    const auto s = server.GetStats();
    EXPECT_LE(outcome_sum(s), s.adds_processed)
        << "snapshot " << i << " observed an outcome without its total";
  }
  stop.store(true);
  for (auto& th : writers) th.join();

  const auto final_stats = server.GetStats();
  EXPECT_EQ(outcome_sum(final_stats), final_stats.adds_processed)
      << "quiesced: the ledger balances exactly";
  EXPECT_EQ(final_stats.adds_accepted, 1u);
}

}  // namespace
}  // namespace communix
