// Replication wire frames: round trips, and — because a primary faces
// its replicas over the open network — every malformed/truncated
// kReplPull / kReplBatch frame must be rejected crisply (kInvalidArgument
// + the malformed counter), never crash, and never touch the store. A
// kReplPull reply racing lineage changes pairs one log's epoch with that
// same log's entries.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "net/message.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("rw.A", 6, F("rw.A", "s1", 100 + salt)),
              ChainStack("rw.A", 6, F("rw.A", "i1", 9100 + salt)),
              ChainStack("rw.B", 6, F("rw.B", "s2", 20300 + salt)),
              ChainStack("rw.B", 6, F("rw.B", "i2", 31400 + salt)));
}

TEST(ReplPullLineageTest, EveryReplyPairsOneLineagesEpochAndEntries) {
  // One thread changes lineage over and over (mark entry 0 superseded,
  // Compact it away, ADD one entry back) while readers pull entry 0. A
  // reply must take its epoch, length and entries from one log: every
  // compaction drops the first entry, so a reply that pairs one
  // lineage's epoch with another's entries names the wrong first entry.
  VirtualClock clock;
  CommunixServer primary(clock);
  constexpr std::uint32_t kEntries = 16;
  constexpr std::uint32_t kLineages = 1000;
  for (std::uint32_t i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(primary
                    .AddSignature(primary.IssueToken(100 + i), MakeSig(i * 9))
                    .ok());
  }
  struct Lineage {
    std::vector<std::uint8_t> first;
    std::uint64_t min_size = 0;
    std::uint64_t max_size = 0;
  };
  // Written by the mutator only, read after the join.
  std::map<std::uint64_t, Lineage> published;
  const auto publish = [&] {
    Lineage& l = published[primary.epoch()];
    if (l.first.empty()) {
      l.first = primary.GetSince(0).at(0);
      l.min_size = primary.db_size();
    }
    l.max_size = primary.db_size();
  };
  publish();

  struct Read {
    std::uint64_t epoch;
    std::uint64_t log_size;
    std::vector<std::uint8_t> first;
  };
  const UserToken peer = primary.IssueToken(kReplicationPeerId);
  std::atomic<bool> done{false};
  std::vector<std::vector<Read>> reads(3);
  std::vector<std::thread> readers;
  for (auto& out : reads) {
    readers.emplace_back([&, out = &out] {
      net::ReplPullRequest pull{0, 0, 1};
      pull.token.assign(peer.begin(), peer.end());
      const net::Request request = net::BuildReplPullRequest(pull);
      while (!done.load()) {
        const auto reply = net::ParseReplPullReply(primary.Handle(request));
        if (!reply.has_value() || reply->entries.size() != 1) continue;
        out->push_back(Read{reply->epoch, reply->log_size,
                            reply->entries[0].sig_bytes});
      }
    });
  }
  for (std::uint32_t i = 0; i < kLineages; ++i) {
    ASSERT_TRUE(primary.MarkSuperseded(0));
    ASSERT_EQ(primary.Compact(), 1u);
    publish();
    ASSERT_TRUE(primary
                    .AddSignature(primary.IssueToken(1000 + i),
                                  MakeSig(1000 + i * 9))
                    .ok());
    publish();
  }
  done.store(true);
  for (auto& t : readers) t.join();

  std::size_t total = 0;
  std::size_t split = 0;
  for (const auto& out : reads) {
    for (const Read& r : out) {
      ++total;
      const auto it = published.find(r.epoch);
      if (it == published.end() || it->second.first != r.first ||
          r.log_size < it->second.min_size ||
          r.log_size > it->second.max_size) {
        ++split;
      }
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(split, 0u) << split << " of " << total
                       << " replies paired one lineage's epoch with "
                          "another lineage's length or entries";
}

TEST(ReplWireTest, PullRequestRoundTrip) {
  net::ReplPullRequest pull{0xABCDEF01, 42, 17};
  pull.token.assign(16, 0x17);
  const net::Request req = net::BuildReplPullRequest(pull);
  EXPECT_EQ(req.type, net::MsgType::kReplPull);
  const auto parsed = net::ParseReplPullRequest(req);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->token, pull.token);
  EXPECT_EQ(parsed->epoch, pull.epoch);
  EXPECT_EQ(parsed->from_index, pull.from_index);
  EXPECT_EQ(parsed->limit, pull.limit);
}

TEST(ReplWireTest, PullReplyRoundTrip) {
  net::ReplPullReply reply;
  reply.epoch = 7;
  reply.log_size = 3;
  reply.reset = true;
  reply.start_index = 0;
  reply.entries.push_back(net::ReplEntry{11, -5, {1, 2, 3}});
  reply.entries.push_back(net::ReplEntry{12, 99, {}});
  const net::Response resp = net::BuildReplPullReply(reply);
  const auto parsed = net::ParseReplPullReply(resp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, reply.epoch);
  EXPECT_EQ(parsed->log_size, reply.log_size);
  EXPECT_EQ(parsed->reset, reply.reset);
  EXPECT_EQ(parsed->start_index, reply.start_index);
  EXPECT_EQ(parsed->entries, reply.entries);
}

TEST(ReplWireTest, BatchRequestRoundTrip) {
  net::ReplBatchRequest batch;
  batch.token.assign(16, 0x42);
  batch.epoch = 9;
  batch.reset = false;
  batch.from_index = 5;
  batch.entries.push_back(net::ReplEntry{1, 2, {0xAA, 0xBB}});
  const net::Request req = net::BuildReplBatchRequest(batch);
  EXPECT_EQ(req.type, net::MsgType::kReplBatch);
  const auto parsed = net::ParseReplBatchRequest(req);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->token, batch.token);
  EXPECT_EQ(parsed->epoch, batch.epoch);
  EXPECT_EQ(parsed->reset, batch.reset);
  EXPECT_EQ(parsed->from_index, batch.from_index);
  EXPECT_EQ(parsed->entries, batch.entries);
}

TEST(ReplWireTest, BatchReplyRoundTrip) {
  const net::Response resp =
      net::BuildReplBatchReply(net::ReplBatchReply{21, 1000});
  const auto parsed = net::ParseReplBatchReply(resp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->epoch, 21u);
  EXPECT_EQ(parsed->log_size, 1000u);
}

// ---------------------------------------------------------------------------
// kReplPull served end-to-end: entries from a cursor, probe mode, and
// the anti-entropy reset hint.
// ---------------------------------------------------------------------------

TEST(ReplPullServingTest, ServesEntriesProbesAndResetHints) {
  VirtualClock clock;
  CommunixServer primary(clock);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(primary
                    .AddSignature(primary.IssueToken(100 + i), MakeSig(i * 9))
                    .ok());
  }
  const UserToken peer = primary.IssueToken(kReplicationPeerId);
  const auto with_credential = [&](std::uint64_t epoch, std::uint64_t from,
                                   std::uint32_t limit) {
    net::ReplPullRequest pull{epoch, from, limit};
    pull.token.assign(peer.begin(), peer.end());
    return net::BuildReplPullRequest(pull);
  };

  // Entry-bearing pulls ship sender ids, so they require the peer
  // credential; without it they are refused outright.
  auto denied = primary.Handle(net::BuildReplPullRequest(
      net::ReplPullRequest{primary.epoch(), 2, 2}));
  EXPECT_EQ(denied.code, ErrorCode::kPermissionDenied);

  // Same epoch, cursor 2, limit 2: ships entries [2, 4).
  auto resp = primary.Handle(with_credential(primary.epoch(), 2, 2));
  ASSERT_TRUE(resp.ok());
  auto reply = net::ParseReplPullReply(resp);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->epoch, primary.epoch());
  EXPECT_EQ(reply->log_size, 5u);
  EXPECT_FALSE(reply->reset);
  EXPECT_EQ(reply->start_index, 2u);
  ASSERT_EQ(reply->entries.size(), 2u);
  EXPECT_EQ(reply->entries[0].sig_bytes, primary.GetSince(2)[0]);
  EXPECT_EQ(reply->entries[1].sig_bytes, primary.GetSince(2)[1]);

  // Probe mode (limit 0): epoch + length only.
  resp = primary.Handle(
      net::BuildReplPullRequest(net::ReplPullRequest{primary.epoch(), 0, 0}));
  reply = net::ParseReplPullReply(resp);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->log_size, 5u);
  EXPECT_TRUE(reply->entries.empty());

  // Divergent epoch: reset hint, entries restart at 0 regardless of the
  // requested cursor.
  resp = primary.Handle(with_credential(primary.epoch() + 1, 4, 10));
  reply = net::ParseReplPullReply(resp);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->reset);
  EXPECT_EQ(reply->start_index, 0u);
  EXPECT_EQ(reply->entries.size(), 5u);
  EXPECT_EQ(primary.GetStats().repl_pulls_served, 3u);
}

// ---------------------------------------------------------------------------
// Malformed / truncated frames against a live server.
// ---------------------------------------------------------------------------

class MalformedReplFrameTest : public ::testing::Test {
 protected:
  net::Response Send(net::MsgType type, std::vector<std::uint8_t> payload,
                     CommunixServer& server) {
    net::Request req;
    req.type = type;
    req.payload = std::move(payload);
    return server.Handle(req);
  }

  /// Sends the payload and expects the malformed rejection with no store
  /// side effects.
  void ExpectMalformed(net::MsgType type, std::vector<std::uint8_t> payload,
                       CommunixServer& server) {
    const auto before = server.GetStats();
    const std::uint64_t size_before = server.db_size();
    const net::Response resp = Send(type, std::move(payload), server);
    EXPECT_EQ(resp.code, ErrorCode::kInvalidArgument);
    const auto after = server.GetStats();
    EXPECT_EQ(after.rejected_malformed, before.rejected_malformed + 1);
    EXPECT_EQ(server.db_size(), size_before);
  }

  VirtualClock clock_;
};

CommunixServer::Options FollowerOptions() {
  CommunixServer::Options opts;
  opts.role = ServerRole::kFollower;
  return opts;
}

TEST_F(MalformedReplFrameTest, TruncatedPullFrames) {
  CommunixServer primary(clock_);
  // Every strict prefix of a valid kReplPull payload (token16 + u64 +
  // u64 + u32 = 36 bytes) is truncated; anything longer is trailing
  // garbage.
  const net::Request valid =
      net::BuildReplPullRequest(net::ReplPullRequest{1, 2, 3});
  ASSERT_EQ(valid.payload.size(), 36u);  // token16 + u64 + u64 + u32
  for (std::size_t n = 0; n < valid.payload.size(); ++n) {
    std::vector<std::uint8_t> cut(valid.payload.begin(),
                                  valid.payload.begin() + n);
    ExpectMalformed(net::MsgType::kReplPull, std::move(cut), primary);
  }
  std::vector<std::uint8_t> trailing = valid.payload;
  trailing.push_back(0);
  ExpectMalformed(net::MsgType::kReplPull, std::move(trailing), primary);
}

TEST_F(MalformedReplFrameTest, TruncatedBatchFrames) {
  CommunixServer follower(clock_, FollowerOptions());
  const UserToken peer = follower.IssueToken(kReplicationPeerId);
  net::ReplBatchRequest batch;
  batch.token.assign(peer.begin(), peer.end());
  batch.epoch = follower.epoch();
  batch.from_index = 0;
  batch.entries.push_back(
      net::ReplEntry{1, 2, MakeSig(0).ToBytes()});
  const net::Request valid = net::BuildReplBatchRequest(batch);
  // Chop the frame at every byte boundary: all of them must be rejected
  // except the full frame.
  for (std::size_t n = 0; n < valid.payload.size(); ++n) {
    std::vector<std::uint8_t> cut(valid.payload.begin(),
                                  valid.payload.begin() + n);
    ExpectMalformed(net::MsgType::kReplBatch, std::move(cut), follower);
  }
  std::vector<std::uint8_t> trailing = valid.payload;
  trailing.push_back(0);
  ExpectMalformed(net::MsgType::kReplBatch, std::move(trailing), follower);
}

TEST_F(MalformedReplFrameTest, HostileEntryCountCannotForceAllocation) {
  CommunixServer follower(clock_, FollowerOptions());
  const UserToken peer = follower.IssueToken(kReplicationPeerId);
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(peer.data(), peer.size()));
  w.WriteU64(follower.epoch());
  w.WriteU8(0);
  w.WriteU64(0);
  w.WriteU32(0x7FFFFFFF);  // claims ~2B entries, carries none
  ExpectMalformed(net::MsgType::kReplBatch, w.take(), follower);
}

TEST_F(MalformedReplFrameTest, BadResetFlagRejected) {
  CommunixServer follower(clock_, FollowerOptions());
  const UserToken peer = follower.IssueToken(kReplicationPeerId);
  BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(peer.data(), peer.size()));
  w.WriteU64(follower.epoch());
  w.WriteU8(2);  // flags must be 0 or 1
  w.WriteU64(0);
  w.WriteU32(0);
  ExpectMalformed(net::MsgType::kReplBatch, w.take(), follower);
}

TEST_F(MalformedReplFrameTest, GarbageSignatureBytesAreDataLoss) {
  CommunixServer follower(clock_, FollowerOptions());
  const UserToken peer = follower.IssueToken(kReplicationPeerId);
  net::ReplBatchRequest batch;
  batch.token.assign(peer.begin(), peer.end());
  batch.epoch = follower.epoch();
  batch.from_index = 0;
  batch.entries.push_back(net::ReplEntry{1, 2, {0xDE, 0xAD, 0xBE, 0xEF}});
  const net::Response resp = follower.Handle(net::BuildReplBatchRequest(batch));
  // The frame itself parses; the entry's signature does not. Nothing is
  // committed.
  EXPECT_EQ(resp.code, ErrorCode::kDataLoss);
  EXPECT_EQ(follower.db_size(), 0u);

  // A populated follower gets a reset frame of another lineage whose
  // valid entries come before a garbage one: every entry is validated
  // before the reset, so the follower keeps its log and its lineage.
  net::ReplBatchRequest fill;
  fill.token.assign(peer.begin(), peer.end());
  fill.epoch = 0xF111;
  fill.reset = true;
  for (std::uint32_t i = 0; i < 40; ++i) {
    fill.entries.push_back(net::ReplEntry{1 + i, 2, MakeSig(i * 9).ToBytes()});
  }
  ASSERT_TRUE(follower.Handle(net::BuildReplBatchRequest(fill)).ok());
  ASSERT_EQ(follower.db_size(), 40u);
  net::ReplBatchRequest reset;
  reset.token.assign(peer.begin(), peer.end());
  reset.epoch = 0xBAD;
  reset.reset = true;
  reset.entries.push_back(net::ReplEntry{1, 2, MakeSig(1000).ToBytes()});
  reset.entries.push_back(net::ReplEntry{2, 2, MakeSig(2000).ToBytes()});
  reset.entries.push_back(net::ReplEntry{3, 2, {0xDE, 0xAD, 0xBE}});
  EXPECT_EQ(follower.Handle(net::BuildReplBatchRequest(reset)).code,
            ErrorCode::kDataLoss);
  EXPECT_EQ(follower.db_size(), 40u);
  EXPECT_EQ(follower.epoch(), 0xF111u);
}

TEST_F(MalformedReplFrameTest, PrimaryRefusesBatchIngest) {
  CommunixServer primary(clock_);
  const UserToken peer = primary.IssueToken(kReplicationPeerId);
  net::ReplBatchRequest batch;
  batch.token.assign(peer.begin(), peer.end());
  batch.epoch = primary.epoch();
  batch.from_index = 0;
  const net::Response resp = primary.Handle(net::BuildReplBatchRequest(batch));
  EXPECT_EQ(resp.code, ErrorCode::kFailedPrecondition);
  EXPECT_EQ(primary.GetStats().rejected_not_primary, 1u);
}

TEST_F(MalformedReplFrameTest, IngestRequiresTheReplicationCredential) {
  CommunixServer follower(clock_, FollowerOptions());
  // A structurally valid wipe-and-repopulate frame, but signed with an
  // ordinary community member's token: refused before the store is
  // touched (epoch, contents and length all survive).
  const std::uint64_t epoch_before = follower.epoch();
  net::ReplBatchRequest batch;
  const UserToken member = follower.IssueToken(7);
  batch.token.assign(member.begin(), member.end());
  batch.epoch = 0xEF11;
  batch.reset = true;
  batch.entries.push_back(net::ReplEntry{1, 2, MakeSig(5).ToBytes()});
  net::Response resp = follower.Handle(net::BuildReplBatchRequest(batch));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(follower.epoch(), epoch_before);
  EXPECT_EQ(follower.db_size(), 0u);
  EXPECT_EQ(follower.GetStats().repl_resets, 0u);
  EXPECT_EQ(follower.GetStats().rejected_bad_token, 1u);

  // A forged (random) token fails the same way.
  batch.token.assign(16, 0x5A);
  resp = follower.Handle(net::BuildReplBatchRequest(batch));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);

  // The real credential is accepted.
  const UserToken peer = follower.IssueToken(kReplicationPeerId);
  batch.token.assign(peer.begin(), peer.end());
  resp = follower.Handle(net::BuildReplBatchRequest(batch));
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_EQ(follower.epoch(), 0xEF11u);
  EXPECT_EQ(follower.db_size(), 1u);
}

TEST_F(MalformedReplFrameTest, WireWillNotIssueTheReplicationPrincipal) {
  CommunixServer server(clock_);
  BinaryWriter w;
  w.WriteU64(kReplicationPeerId);
  const net::Response resp =
      Send(net::MsgType::kIssueId, w.take(), server);
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
  EXPECT_TRUE(resp.payload.empty());
}

TEST_F(MalformedReplFrameTest, FollowerRefusesAdds) {
  CommunixServer follower(clock_, FollowerOptions());
  const UserToken token = follower.IssueToken(1);
  EXPECT_EQ(follower.AddSignature(token, MakeSig(0)).code(),
            ErrorCode::kFailedPrecondition);
  const std::vector<Signature> sigs{MakeSig(1), MakeSig(2)};
  const auto statuses =
      follower.AddBatch(token, std::span<const Signature>(sigs));
  ASSERT_EQ(statuses.size(), 2u);
  for (const Status& s : statuses) {
    EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  }
  EXPECT_EQ(follower.db_size(), 0u);
  EXPECT_EQ(follower.GetStats().rejected_not_primary, 3u);
}

}  // namespace
}  // namespace communix
