// kMarkSuperseded, the batched retirement verb of the dimmunix
// false-positive / generalization flow: frame round trip, byte-by-byte
// truncation and hostile-count fuzzing with crisp rejections and no
// store side effects (the verb faces the open network like every other),
// the request-verb bound, and the verb served end to end.
#include <gtest/gtest.h>

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
  return Sig2(ChainStack("sm.A", 6, F("sm.A", "s1", 100 + salt)),
              ChainStack("sm.A", 6, F("sm.A", "i1", 9100 + salt)),
              ChainStack("sm.B", 6, F("sm.B", "s2", 20300 + salt)),
              ChainStack("sm.B", 6, F("sm.B", "i2", 31400 + salt)));
}

// ---------------------------------------------------------------------------
// Frame round trip and fuzzing: every-byte truncation, hostile counts,
// trailing garbage, and the request-verb bound.
// ---------------------------------------------------------------------------

class MarkSupersededWireTest : public ::testing::Test {
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
    EXPECT_EQ(after.superseded_from_fp, before.superseded_from_fp);
  }

  VirtualClock clock_;
};

TEST_F(MarkSupersededWireTest, RoundTrip) {
  net::MarkSupersededRequest mark;
  mark.token.assign(16, 0x5A);
  mark.content_ids = {1, 0xFFFFFFFFFFFFFFFFull, 42};
  const net::Request req = net::BuildMarkSupersededRequest(mark);
  EXPECT_EQ(req.type, net::MsgType::kMarkSuperseded);
  const auto parsed = net::ParseMarkSupersededRequest(req);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->token, mark.token);
  EXPECT_EQ(parsed->content_ids, mark.content_ids);

  const auto marked =
      net::ParseMarkSupersededReply(net::BuildMarkSupersededReply(17));
  ASSERT_TRUE(marked.has_value());
  EXPECT_EQ(*marked, 17u);
}

TEST_F(MarkSupersededWireTest, TruncatedFrames) {
  CommunixServer server(clock_);
  net::MarkSupersededRequest mark;
  const UserToken token = server.IssueToken(77);
  mark.token.assign(token.begin(), token.end());
  mark.content_ids = {123, 456};
  const net::Request valid = net::BuildMarkSupersededRequest(mark);
  ASSERT_EQ(valid.payload.size(), 16u + 4u + 2 * 8u);
  for (std::size_t n = 0; n < valid.payload.size(); ++n) {
    ExpectMalformed(
        net::MsgType::kMarkSuperseded,
        std::vector<std::uint8_t>(valid.payload.begin(),
                                  valid.payload.begin() + n),
        server);
  }
  std::vector<std::uint8_t> trailing = valid.payload;
  trailing.push_back(0);
  ExpectMalformed(net::MsgType::kMarkSuperseded, std::move(trailing), server);
}

TEST_F(MarkSupersededWireTest, HostileCountRejectedBeforeAllocation) {
  CommunixServer server(clock_);
  // kMarkSuperseded claiming 2^32-1 ids in a tiny frame.
  BinaryWriter w;
  const UserToken token = server.IssueToken(77);
  w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
  w.WriteU32(0xFFFFFFFFu);
  w.WriteU64(1);
  ExpectMalformed(net::MsgType::kMarkSuperseded, w.take(), server);
}

TEST_F(MarkSupersededWireTest, RequestVerbBound) {
  // kStats (10) is the highest verb: 10 deserializes, 11 doesn't. Verb 8
  // is retired and refused, while kMarkSuperseded keeps 9.
  auto frame = [](std::uint8_t type) {
    BinaryWriter w;
    w.WriteU8(type);
    w.WriteU32(0);
    return w.take();
  };
  EXPECT_FALSE(net::Request::Deserialize(frame(8)).has_value());
  EXPECT_TRUE(net::Request::Deserialize(frame(9)).has_value());
  EXPECT_TRUE(net::Request::Deserialize(frame(10)).has_value());
  EXPECT_FALSE(net::Request::Deserialize(frame(11)).has_value());
}

TEST_F(MarkSupersededWireTest, OversizedBatchRejected) {
  CommunixServer::Options opts;
  opts.repl_pull_max_entries = 4;
  CommunixServer server(clock_, opts);
  net::MarkSupersededRequest mark;
  const UserToken token = server.IssueToken(77);
  mark.token.assign(token.begin(), token.end());
  mark.content_ids.assign(5, 1);  // one past the cap
  ExpectMalformed(net::MsgType::kMarkSuperseded,
                  net::BuildMarkSupersededRequest(mark).payload, server);
}

// ---------------------------------------------------------------------------
// kMarkSuperseded served end to end.
// ---------------------------------------------------------------------------

TEST(MarkSupersededServingTest, BatchedMarksInOnePass) {
  VirtualClock clock;
  CommunixServer server(clock);
  std::vector<std::uint64_t> content_ids;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const Signature sig = MakeSig(i * 7);
    content_ids.push_back(sig.ContentId());
    ASSERT_TRUE(server.AddSignature(server.IssueToken(100 + i), sig).ok());
  }

  // A bad token is refused before any store work.
  net::MarkSupersededRequest mark;
  mark.token.assign(16, 0xEE);
  mark.content_ids = {content_ids[0]};
  auto resp = server.Handle(net::BuildMarkSupersededRequest(mark));
  EXPECT_EQ(resp.code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(server.superseded_count(), 0u);

  // Valid batch: marks ids 0 and 2, ignores an unknown id; the reply
  // counts newly-marked entries and re-marking is idempotent.
  const UserToken token = server.IssueToken(500);
  mark.token.assign(token.begin(), token.end());
  mark.content_ids = {content_ids[0], content_ids[2], 0xDEADBEEF};
  resp = server.Handle(net::BuildMarkSupersededRequest(mark));
  ASSERT_TRUE(resp.ok());
  auto marked = net::ParseMarkSupersededReply(resp);
  ASSERT_TRUE(marked.has_value());
  EXPECT_EQ(*marked, 2u);
  EXPECT_EQ(server.superseded_count(), 2u);
  EXPECT_EQ(server.GetStats().superseded_from_fp, 2u);

  resp = server.Handle(net::BuildMarkSupersededRequest(mark));
  marked = net::ParseMarkSupersededReply(resp);
  ASSERT_TRUE(marked.has_value());
  EXPECT_EQ(*marked, 0u) << "re-marking the same content is a no-op";

  // Compaction drops exactly the marked entries.
  EXPECT_EQ(server.Compact(), 2u);
  EXPECT_EQ(server.db_size(), 2u);
}

TEST(MarkSupersededServingTest, FollowerRefusesMarks) {
  VirtualClock clock;
  CommunixServer::Options opts;
  opts.role = ServerRole::kFollower;
  CommunixServer follower(clock, opts);
  net::MarkSupersededRequest mark;
  const UserToken token = follower.IssueToken(1);
  mark.token.assign(token.begin(), token.end());
  mark.content_ids = {1};
  const auto resp = follower.Handle(net::BuildMarkSupersededRequest(mark));
  EXPECT_EQ(resp.code, ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace communix
