#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "../testutil.hpp"
#include "communix/server.hpp"
#include "net/message.hpp"
#include "util/clock.hpp"

namespace communix {
namespace {

using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("ps.A", 6, F("ps.A", "s1", 100 + salt)),
              ChainStack("ps.A", 6, F("ps.A", "i1", 9100 + salt)),
              ChainStack("ps.B", 6, F("ps.B", "s2", 20300 + salt)),
              ChainStack("ps.B", 6, F("ps.B", "i2", 31400 + salt)));
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(ServerPersistenceTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("communix_server_db_test.bin");
  VirtualClock clock;
  CommunixServer server(clock);
  const UserToken t1 = server.IssueToken(1);
  const UserToken t2 = server.IssueToken(2);
  ASSERT_TRUE(server.AddSignature(t1, MakeSig(0)).ok());
  ASSERT_TRUE(server.AddSignature(t2, MakeSig(1000)).ok());
  ASSERT_TRUE(server.SaveToFile(path).ok());

  CommunixServer restarted(clock);
  ASSERT_TRUE(restarted.LoadFromFile(path).ok());
  EXPECT_EQ(restarted.db_size(), 2u);
  // Same contents, same order (GET(k) cursors stay valid).
  EXPECT_EQ(restarted.GetSince(0), server.GetSince(0));
  std::remove(path.c_str());
}

TEST(ServerPersistenceTest, DedupSurvivesRestart) {
  const std::string path = TempPath("communix_server_dedup_test.bin");
  VirtualClock clock;
  CommunixServer server(clock);
  ASSERT_TRUE(server.AddSignature(server.IssueToken(1), MakeSig(0)).ok());
  ASSERT_TRUE(server.SaveToFile(path).ok());

  CommunixServer restarted(clock);
  ASSERT_TRUE(restarted.LoadFromFile(path).ok());
  EXPECT_EQ(restarted.AddSignature(restarted.IssueToken(2), MakeSig(0)).code(),
            ErrorCode::kAlreadyExists);
  std::remove(path.c_str());
}

TEST(ServerPersistenceTest, AdjacencyStateSurvivesRestart) {
  const std::string path = TempPath("communix_server_adj_test.bin");
  VirtualClock clock;
  CommunixServer server(clock);
  const auto shared_top = F("ps.A", "s1", 100);
  const Signature s1 = Sig2(ChainStack("ps.A", 6, shared_top),
                            ChainStack("ps.A", 6, F("ps.A", "i1", 200)),
                            ChainStack("ps.B", 6, F("ps.B", "s2", 300)),
                            ChainStack("ps.B", 6, F("ps.B", "i2", 400)));
  const Signature s2 = Sig2(ChainStack("ps.A", 6, shared_top),
                            ChainStack("ps.A", 6, F("ps.A", "i1", 201)),
                            ChainStack("ps.C", 6, F("ps.C", "s3", 500)),
                            ChainStack("ps.C", 6, F("ps.C", "i3", 600)));
  ASSERT_TRUE(server.AddSignature(server.IssueToken(7), s1).ok());
  ASSERT_TRUE(server.SaveToFile(path).ok());

  CommunixServer restarted(clock);
  ASSERT_TRUE(restarted.LoadFromFile(path).ok());
  // Same user, adjacent signature: still rejected after the restart.
  EXPECT_EQ(
      restarted.AddSignature(restarted.IssueToken(7), s2).code(),
      ErrorCode::kPermissionDenied);
  std::remove(path.c_str());
}

TEST(ServerPersistenceTest, LoadRejectsCorruptFile) {
  const std::string path = TempPath("communix_server_corrupt_test.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a server database", f);
    std::fclose(f);
  }
  VirtualClock clock;
  CommunixServer server(clock);
  EXPECT_EQ(server.LoadFromFile(path).code(), ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

/// store.persist.failures in the server's kStats snapshot.
std::uint64_t SaveFailures(CommunixServer& server) {
  const auto snap = net::ParseStatsReply(
      server.Handle(net::BuildStatsRequest(net::StatsRequest{})));
  EXPECT_TRUE(snap.has_value());
  EXPECT_TRUE(snap.has_value() && snap->Has("store.persist.failures"));
  return snap.has_value() ? snap->Value("store.persist.failures") : 0;
}

TEST(ServerPersistenceTest, FailedSavesAreCounted) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("communix_missing_dir_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "db.bin").string();
  VirtualClock clock;
  CommunixServer server(clock);
  ASSERT_TRUE(server.AddSignature(server.IssueToken(1), MakeSig(0)).ok());
  EXPECT_EQ(SaveFailures(server), 0u);

  // Saving into a directory that does not exist fails, every tick.
  EXPECT_FALSE(server.SaveToFile(path).ok());
  EXPECT_FALSE(server.SaveToFile(path).ok());
  const std::uint64_t failed = SaveFailures(server);
  EXPECT_GE(failed, 1u);

  // Once the directory exists, saves succeed and the count stops rising.
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(server.SaveToFile(path).ok());
  EXPECT_TRUE(server.SaveToFile(path).ok());
  EXPECT_EQ(SaveFailures(server), failed);

  CommunixServer restarted(clock);
  ASSERT_TRUE(restarted.LoadFromFile(path).ok());
  EXPECT_EQ(restarted.db_size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(ServerPersistenceTest, LoadMissingFileIsNotFound) {
  VirtualClock clock;
  CommunixServer server(clock);
  EXPECT_EQ(server.LoadFromFile("/no/such/dir/db.bin").code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace communix
