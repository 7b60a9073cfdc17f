#include "net/message.hpp"

#include <gtest/gtest.h>

namespace communix::net {
namespace {

TEST(MessageTest, RequestRoundTrip) {
  Request req;
  req.type = MsgType::kAddSignature;
  req.payload = {1, 2, 3, 4, 5};
  const auto bytes = req.Serialize();
  const auto back = Request::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, MsgType::kAddSignature);
  EXPECT_EQ(back->payload, req.payload);
}

TEST(MessageTest, EmptyPayloadRoundTrip) {
  Request req;
  req.type = MsgType::kPing;
  const auto bytes = req.Serialize();
  const auto back = Request::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->payload.empty());
}

TEST(MessageTest, RequestRejectsUnknownType) {
  Request req;
  req.type = MsgType::kPing;
  auto bytes = req.Serialize();
  // 200 was never a verb; 7 and 8 are retired (the deleted checkpoint
  // transfer and shard-map fetch).
  for (const std::uint8_t invalid : {200, 8, 7}) {
    bytes[0] = invalid;
    EXPECT_FALSE(Request::Deserialize(std::span<const std::uint8_t>(
                     bytes.data(), bytes.size()))
                     .has_value())
        << "type " << int{invalid};
  }
}

TEST(MessageTest, RequestRejectsTrailingGarbage) {
  Request req;
  req.type = MsgType::kPing;
  auto bytes = req.Serialize();
  bytes.push_back(0xEE);
  EXPECT_FALSE(Request::Deserialize(
                   std::span<const std::uint8_t>(bytes.data(), bytes.size()))
                   .has_value());
}

TEST(MessageTest, ResponseRoundTrip) {
  Response resp;
  resp.code = ErrorCode::kPermissionDenied;
  resp.error = "adjacent signature";
  resp.payload = {9, 8, 7};
  const auto bytes = resp.Serialize();
  const auto back = Response::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->code, ErrorCode::kPermissionDenied);
  EXPECT_EQ(back->error, "adjacent signature");
  EXPECT_EQ(back->payload, resp.payload);
  EXPECT_FALSE(back->ok());
}

TEST(MessageTest, OkResponse) {
  Response resp;
  const auto bytes = resp.Serialize();
  const auto back = Response::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->ok());
}

TEST(MessageTest, ResponseRejectsTruncation) {
  Response resp;
  resp.error = "some error text";
  resp.payload = {1, 2, 3};
  const auto bytes = resp.Serialize();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_FALSE(Response::Deserialize(std::span<const std::uint8_t>(
                     bytes.data(), keep))
                     .has_value())
        << "keep=" << keep;
  }
}

TEST(MessageTest, AddBatchTypeIsValidOnTheWire) {
  Request req;
  req.type = MsgType::kAddBatch;
  req.payload = {1, 2, 3};
  const auto bytes = req.Serialize();
  const auto back = Request::Deserialize(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, MsgType::kAddBatch);

  // The replication, mark and introspection verbs are valid; the next
  // enum slot is rejected.
  auto corrupted = bytes;
  for (const MsgType valid : {MsgType::kMarkSuperseded, MsgType::kStats}) {
    corrupted[0] = static_cast<std::uint8_t>(valid);
    EXPECT_TRUE(Request::Deserialize(std::span<const std::uint8_t>(
                    corrupted.data(), corrupted.size()))
                    .has_value());
  }
  corrupted[0] = static_cast<std::uint8_t>(MsgType::kStats) + 1;
  EXPECT_FALSE(Request::Deserialize(std::span<const std::uint8_t>(
                   corrupted.data(), corrupted.size()))
                   .has_value());
}

TEST(MessageTest, BuildAddBatchRequestLayout) {
  const std::vector<std::uint8_t> token(16, 0xAB);
  const std::vector<std::vector<std::uint8_t>> sigs = {{1, 2, 3}, {}, {9}};
  const Request req = BuildAddBatchRequest(
      std::span<const std::uint8_t>(token.data(), token.size()),
      std::span<const std::vector<std::uint8_t>>(sigs.data(), sigs.size()));
  EXPECT_EQ(req.type, MsgType::kAddBatch);

  BinaryReader r(std::span<const std::uint8_t>(req.payload.data(),
                                               req.payload.size()));
  EXPECT_EQ(r.ReadRaw(16), token);
  ASSERT_EQ(r.ReadU32(), 3u);
  EXPECT_EQ(r.ReadBytes(), sigs[0]);
  EXPECT_EQ(r.ReadBytes(), sigs[1]);
  EXPECT_EQ(r.ReadBytes(), sigs[2]);
  EXPECT_TRUE(r.AtEnd());
}

TEST(MessageTest, ParseAddBatchResponseRoundTrip) {
  Response resp;
  BinaryWriter w;
  w.WriteU32(3);
  w.WriteU8(static_cast<std::uint8_t>(ErrorCode::kOk));
  w.WriteU8(static_cast<std::uint8_t>(ErrorCode::kAlreadyExists));
  w.WriteU8(static_cast<std::uint8_t>(ErrorCode::kPermissionDenied));
  resp.payload = w.take();

  const auto codes = ParseAddBatchResponse(resp);
  ASSERT_TRUE(codes.has_value());
  ASSERT_EQ(codes->size(), 3u);
  EXPECT_EQ((*codes)[0], ErrorCode::kOk);
  EXPECT_EQ((*codes)[1], ErrorCode::kAlreadyExists);
  EXPECT_EQ((*codes)[2], ErrorCode::kPermissionDenied);
}

TEST(MessageTest, ParseAddBatchResponseRejectsTrailingGarbage) {
  Response resp;
  BinaryWriter w;
  w.WriteU32(1);
  w.WriteU8(0);
  w.WriteU8(77);  // stray byte
  resp.payload = w.take();
  EXPECT_FALSE(ParseAddBatchResponse(resp).has_value());
}

TEST(MessageTest, ParseAddBatchResponseRejectsTruncation) {
  Response resp;
  BinaryWriter w;
  w.WriteU32(4);
  w.WriteU8(0);  // claims 4 codes, carries 1
  resp.payload = w.take();
  EXPECT_FALSE(ParseAddBatchResponse(resp).has_value());
}

}  // namespace
}  // namespace communix::net
