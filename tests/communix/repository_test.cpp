#include "communix/repository.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

namespace communix {
namespace {

std::vector<std::uint8_t> Bytes(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

TEST(RepositoryTest, AppendAdvancesServerIndex) {
  LocalRepository repo;
  EXPECT_EQ(repo.next_server_index(), 0u);
  repo.Append({Bytes({1}), Bytes({2})});
  EXPECT_EQ(repo.next_server_index(), 2u);
  EXPECT_EQ(repo.size(), 2u);
  repo.Append({Bytes({3})});
  EXPECT_EQ(repo.next_server_index(), 3u);
}

TEST(RepositoryTest, NewEntriesStartFresh) {
  LocalRepository repo;
  repo.Append({Bytes({1})});
  EXPECT_EQ(repo.state(0), SigState::kNew);
  const auto counts = repo.GetCounts();
  EXPECT_EQ(counts.total, 1u);
  EXPECT_EQ(counts.fresh, 1u);
}

TEST(RepositoryTest, ForEachInStateTransitions) {
  LocalRepository repo;
  repo.Append({Bytes({1}), Bytes({2}), Bytes({3})});
  int visited = 0;
  repo.ForEachInState(SigState::kNew,
                      [&](std::size_t i, const LocalRepository::Entry& e) {
                        ++visited;
                        EXPECT_EQ(e.bytes[0], i + 1);
                        return i == 1 ? SigState::kRejectedNesting
                                      : SigState::kAccepted;
                      });
  EXPECT_EQ(visited, 3);
  EXPECT_EQ(repo.state(0), SigState::kAccepted);
  EXPECT_EQ(repo.state(1), SigState::kRejectedNesting);
  EXPECT_EQ(repo.state(2), SigState::kAccepted);

  // Second pass over kNew visits nothing (incremental inspection).
  visited = 0;
  repo.ForEachInState(SigState::kNew,
                      [&](std::size_t, const LocalRepository::Entry&) {
                        ++visited;
                        return SigState::kAccepted;
                      });
  EXPECT_EQ(visited, 0);

  // Nesting-rejected entries can be revisited (§III-C3 recheck).
  visited = 0;
  repo.ForEachInState(SigState::kRejectedNesting,
                      [&](std::size_t, const LocalRepository::Entry&) {
                        ++visited;
                        return SigState::kAccepted;
                      });
  EXPECT_EQ(visited, 1);
}

TEST(RepositoryTest, NewScanVisitsExactlyTheNewEntriesAfterLoadAndAppend) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_repo_inc.bin")
          .string();
  {
    // Mixed states, with an uninspected entry between inspected ones.
    LocalRepository repo;
    repo.Append({Bytes({0}), Bytes({1}), Bytes({2}), Bytes({3})});
    repo.ForEachInState(SigState::kNew,
                        [&](std::size_t i, const LocalRepository::Entry&) {
                          return i == 2 ? SigState::kNew
                                        : SigState::kRejectedHash;
                        });
    ASSERT_TRUE(repo.SaveToFile(path).ok());
  }
  LocalRepository repo;
  ASSERT_TRUE(LocalRepository::LoadFromFile(path, repo).ok());
  repo.Append({Bytes({4}), Bytes({5})});

  const auto new_indexes = [&] {
    std::vector<std::size_t> seen;
    repo.ForEachInState(SigState::kNew,
                        [&](std::size_t i, const LocalRepository::Entry& e) {
                          EXPECT_EQ(e.bytes[0], i);
                          seen.push_back(i);
                          return i == 4 ? SigState::kNew : SigState::kAccepted;
                        });
    return seen;
  };
  EXPECT_EQ(new_indexes(), (std::vector<std::size_t>{2, 4, 5}));
  EXPECT_EQ(new_indexes(), (std::vector<std::size_t>{4}))
      << "an entry left kNew is visited again, and only it";
  repo.Append({Bytes({6})});
  EXPECT_EQ(new_indexes(), (std::vector<std::size_t>{4, 6}));
  EXPECT_EQ(repo.GetCounts().fresh, 1u);
  EXPECT_EQ(repo.GetCounts().rejected_hash, 3u);
  EXPECT_EQ(repo.GetCounts().accepted, 3u);
  std::remove(path.c_str());
}

TEST(RepositoryTest, CountsByState) {
  LocalRepository repo;
  repo.Append({Bytes({1}), Bytes({2}), Bytes({3}), Bytes({4})});
  repo.ForEachInState(SigState::kNew,
                      [&](std::size_t i, const LocalRepository::Entry&) {
                        switch (i) {
                          case 0: return SigState::kAccepted;
                          case 1: return SigState::kRejectedHash;
                          case 2: return SigState::kRejectedDepth;
                          default: return SigState::kNew;
                        }
                      });
  const auto counts = repo.GetCounts();
  EXPECT_EQ(counts.accepted, 1u);
  EXPECT_EQ(counts.rejected_hash, 1u);
  EXPECT_EQ(counts.rejected_depth, 1u);
  EXPECT_EQ(counts.fresh, 1u);
}

TEST(RepositoryTest, SaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_repo_test.bin")
          .string();
  LocalRepository repo;
  repo.Append({Bytes({1, 2, 3}), Bytes({4, 5})});
  repo.ForEachInState(SigState::kNew,
                      [](std::size_t i, const LocalRepository::Entry&) {
                        return i == 0 ? SigState::kAccepted : SigState::kNew;
                      });
  ASSERT_TRUE(repo.SaveToFile(path).ok());

  LocalRepository loaded;
  ASSERT_TRUE(LocalRepository::LoadFromFile(path, loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.bytes(0), Bytes({1, 2, 3}));
  EXPECT_EQ(loaded.state(0), SigState::kAccepted);
  EXPECT_EQ(loaded.state(1), SigState::kNew);
  std::remove(path.c_str());
}

TEST(RepositoryTest, LoadMissingFileFails) {
  LocalRepository repo;
  EXPECT_EQ(LocalRepository::LoadFromFile("/no/such/file", repo).code(),
            ErrorCode::kNotFound);
}

TEST(RepositoryTest, LoadCorruptHeaderFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "communix_repo_bad.bin")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("garbage", f);
    std::fclose(f);
  }
  LocalRepository repo;
  EXPECT_EQ(LocalRepository::LoadFromFile(path, repo).code(),
            ErrorCode::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace communix
