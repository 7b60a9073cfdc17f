#include "communix/client.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "net/inproc.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("cl.A", 6, F("cl.A", "s1", 100 + salt)),
              ChainStack("cl.A", 6, F("cl.A", "i1", 5100 + salt)),
              ChainStack("cl.B", 6, F("cl.B", "s2", 10300 + salt)),
              ChainStack("cl.B", 6, F("cl.B", "i2", 20400 + salt)));
}

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : server_(clock_), transport_(server_) {}

  void Upload(int count, int salt_base = 0) {
    // Spread across users to dodge the per-user daily quota.
    for (int i = 0; i < count; ++i) {
      const UserToken token = server_.IssueToken(
          static_cast<UserId>(1000 + salt_base + i));
      ASSERT_TRUE(
          server_
              .AddSignature(token, MakeSig(static_cast<std::uint32_t>(
                                       salt_base + i)))
              .ok());
    }
  }

  VirtualClock clock_;
  CommunixServer server_;
  net::InprocTransport transport_;
  LocalRepository repo_;
};

TEST_F(ClientTest, PollOnceFetchesEverything) {
  Upload(5);
  CommunixClient client(clock_, transport_, repo_);
  auto result = client.PollOnce();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 5u);
  EXPECT_EQ(repo_.size(), 5u);
}

TEST_F(ClientTest, PollIsIncremental) {
  Upload(3);
  CommunixClient client(clock_, transport_, repo_);
  ASSERT_TRUE(client.PollOnce().ok());
  EXPECT_EQ(repo_.size(), 3u);

  // No new signatures: poll fetches nothing.
  auto result = client.PollOnce();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 0u);
  EXPECT_EQ(repo_.size(), 3u);

  // Two more arrive; only those two are fetched.
  Upload(2, 100);
  result = client.PollOnce();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 2u);
  EXPECT_EQ(repo_.size(), 5u);
}

TEST_F(ClientTest, FetchedBytesDeserialize) {
  Upload(1);
  CommunixClient client(clock_, transport_, repo_);
  ASSERT_TRUE(client.PollOnce().ok());
  const auto bytes = repo_.bytes(0);
  const auto sig = Signature::FromBytes(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(*sig, MakeSig(0));
}

TEST_F(ClientTest, DaemonPollsOncePerDay) {
  Upload(2);
  CommunixClient::Options opts;
  opts.poll_period = kNanosPerDay;
  CommunixClient client(clock_, transport_, repo_, opts);
  client.Start();

  // Let the daemon block on its first sleep, then advance a day.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(client.polls_completed(), 0u);
  clock_.AdvanceDays(1.0);
  for (int spin = 0; spin < 200 && client.polls_completed() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client.polls_completed(), 1u);
  EXPECT_EQ(repo_.size(), 2u);

  Upload(3, 50);
  clock_.AdvanceDays(1.0);
  for (int spin = 0; spin < 200 && client.polls_completed() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client.polls_completed(), 2u);
  EXPECT_EQ(repo_.size(), 5u);

  clock_.Stop();  // release the sleeping daemon so Stop() can join
  client.Stop();
}

TEST_F(ClientTest, PollFailureSurfacesStatus) {
  class FailingTransport final : public net::ClientTransport {
   public:
    Result<net::Response> Call(const net::Request&) override {
      return Status::Error(ErrorCode::kUnavailable, "server down");
    }
  };
  FailingTransport failing;
  CommunixClient client(clock_, failing, repo_);
  auto result = client.PollOnce();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(repo_.size(), 0u);
}

TEST_F(ClientTest, HostileGetCountIsDataLossNotAnAllocation) {
  // A reply claiming 0xFFFFFFFF entries and carrying none: reserving
  // from that count would ask for ~100 GB and abort the process.
  class HostileTransport final : public net::ClientTransport {
   public:
    Result<net::Response> Call(const net::Request&) override {
      net::Response resp;
      BinaryWriter w;
      w.WriteU32(0xFFFFFFFFu);
      resp.payload = w.take();
      return resp;
    }
  };
  Upload(2);
  CommunixClient honest(clock_, transport_, repo_);
  ASSERT_TRUE(honest.PollOnce().ok());
  const std::uint64_t next = repo_.next_server_index();

  HostileTransport hostile;
  CommunixClient client(clock_, hostile, repo_);
  auto result = client.PollOnce();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.code(), ErrorCode::kDataLoss);
  EXPECT_EQ(repo_.size(), 2u) << "the repository is unchanged";
  EXPECT_EQ(repo_.next_server_index(), next);
}

}  // namespace
}  // namespace communix
