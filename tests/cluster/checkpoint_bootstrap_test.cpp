// Checkpoint bootstrap (the far-behind rebuild path): a follower whose
// lineage diverged on a primary past checkpoint_lag_threshold receives
// one kCheckpoint blob and replays only the log suffix. The tests pin
// the three properties the path exists for: entries_replayed ≪ db_size,
// byte-identical equivalence with full entry replay, and full validation
// of the blob BEFORE anything is wiped.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../testutil.hpp"
#include "communix/cluster/log_shipper.hpp"
#include "communix/ids.hpp"
#include "communix/server.hpp"
#include "communix/store/checkpoint.hpp"
#include "net/inproc.hpp"
#include "net/message.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace communix {
namespace {

using cluster::LogShipper;
using dimmunix::Signature;
using testutil::ChainStack;
using testutil::F;
using testutil::Sig2;

Signature MakeSig(std::uint32_t salt) {
  return Sig2(ChainStack("cb.A", 6, F("cb.A", "s1", 100 + salt)),
              ChainStack("cb.A", 6, F("cb.A", "i1", 9100 + salt)),
              ChainStack("cb.B", 6, F("cb.B", "s2", 20300 + salt)),
              ChainStack("cb.B", 6, F("cb.B", "i2", 31400 + salt)));
}

CommunixServer::Options RoleOptions(ServerRole role) {
  CommunixServer::Options opts;
  opts.role = role;
  return opts;
}

void Feed(CommunixServer& primary, std::uint32_t count,
          std::uint32_t salt = 0) {
  for (std::uint32_t i = 0; i < count; ++i) {
    const UserId user = 1000 + salt + i;
    ASSERT_TRUE(primary
                    .AddSignature(primary.IssueToken(user),
                                  MakeSig(salt + i * 7))
                    .ok());
  }
}

void ExpectIdentical(CommunixServer& a, CommunixServer& b) {
  EXPECT_EQ(a.db_size(), b.db_size());
  EXPECT_EQ(a.GetSince(0), b.GetSince(0));
  EXPECT_EQ(a.epoch(), b.epoch());
}

TEST(CheckpointBootstrapTest, FarBehindFollowerBootstrapsFromSnapshot) {
  VirtualClock clock;
  CommunixServer primary(clock, RoleOptions(ServerRole::kPrimary));
  CommunixServer follower(clock, RoleOptions(ServerRole::kFollower));
  Feed(primary, 50);

  net::InprocTransport to_follower(follower);
  LogShipper::Options opts;
  opts.batch_limit = 8;
  opts.checkpoint_lag_threshold = 32;  // 50 >= 32: cutover fires
  LogShipper shipper(primary, opts);
  const std::size_t id = shipper.AddFollower("f0", to_follower);

  ASSERT_TRUE(shipper.PumpUntilSynced());
  ExpectIdentical(primary, follower);

  // The rebuild was served as ONE snapshot, not 50/8 reset batches...
  const auto status = shipper.GetFollowerStatus(id);
  EXPECT_EQ(status.checkpoints_shipped, 1u);
  EXPECT_EQ(status.resets, 1u);
  EXPECT_EQ(status.entries_shipped, 0u)
      << "snapshot entries are not feed entries";
  // ...and the follower replayed NO entries to get there.
  const auto fstats = follower.GetStats();
  EXPECT_EQ(fstats.checkpoints_installed, 1u);
  EXPECT_EQ(fstats.checkpoint_entries_installed, 50u);
  EXPECT_EQ(fstats.repl_entries_applied, 0u)
      << "entries_replayed must be << db_size";

  // The feed then resumes as a plain suffix stream.
  Feed(primary, 10, /*salt=*/500);
  ASSERT_TRUE(shipper.PumpUntilSynced());
  ExpectIdentical(primary, follower);
  EXPECT_EQ(follower.GetStats().repl_entries_applied, 10u);
  EXPECT_EQ(shipper.GetFollowerStatus(id).entries_shipped, 10u);
  EXPECT_EQ(shipper.GetFollowerStatus(id).checkpoints_shipped, 1u)
      << "no second snapshot once the lineage is adopted";
}

TEST(CheckpointBootstrapTest, ThresholdZeroFallsBackToEntryReplay) {
  VirtualClock clock;
  CommunixServer primary(clock, RoleOptions(ServerRole::kPrimary));
  CommunixServer follower(clock, RoleOptions(ServerRole::kFollower));
  Feed(primary, 40);

  net::InprocTransport to_follower(follower);
  LogShipper::Options opts;
  opts.batch_limit = 8;
  opts.checkpoint_lag_threshold = 0;  // disabled
  LogShipper shipper(primary, opts);
  shipper.AddFollower("f0", to_follower);

  ASSERT_TRUE(shipper.PumpUntilSynced());
  ExpectIdentical(primary, follower);
  EXPECT_EQ(follower.GetStats().checkpoints_installed, 0u);
  EXPECT_EQ(follower.GetStats().repl_entries_applied, 40u);
}

TEST(CheckpointBootstrapTest, BootstrapIsByteEquivalentToFullReplay) {
  // Randomized: interleave ADDs with shipping rounds against two fresh
  // followers — one bootstrapping via checkpoint, one via full entry
  // replay — under random per-round lag. Both must converge to the same
  // byte stream as the primary, every round and at the end.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    VirtualClock clock;
    CommunixServer primary(clock, RoleOptions(ServerRole::kPrimary));
    CommunixServer by_ckpt(clock, RoleOptions(ServerRole::kFollower));
    CommunixServer by_replay(clock, RoleOptions(ServerRole::kFollower));

    net::InprocTransport to_ckpt(by_ckpt);
    net::InprocTransport to_replay(by_replay);
    LogShipper::Options ckpt_opts;
    ckpt_opts.batch_limit = 5;
    ckpt_opts.checkpoint_lag_threshold = 16;
    LogShipper ckpt_shipper(primary, ckpt_opts);
    ckpt_shipper.AddFollower("ckpt", to_ckpt);
    LogShipper::Options replay_opts;
    replay_opts.batch_limit = 5;
    replay_opts.checkpoint_lag_threshold = 0;
    LogShipper replay_shipper(primary, replay_opts);
    replay_shipper.AddFollower("replay", to_replay);

    Feed(primary, 20 + rng.NextBounded(30),
         static_cast<std::uint32_t>(seed * 10000));
    for (int step = 0; step < 40; ++step) {
      const std::uint32_t action = rng.NextBounded(100);
      if (action < 40) {
        Feed(primary, 1 + rng.NextBounded(3),
             static_cast<std::uint32_t>(seed * 10000 + 1000 + step * 10));
      } else if (action < 70) {
        (void)ckpt_shipper.ShipRound();
      } else {
        (void)replay_shipper.ShipRound();
      }
      // Whatever each follower holds must be a byte-identical prefix.
      const auto ref = primary.GetSince(0);
      for (CommunixServer* f : {&by_ckpt, &by_replay}) {
        const auto got = f->GetSince(0);
        ASSERT_LE(got.size(), ref.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], ref[i]) << "divergence at " << i << " seed "
                                    << seed << " step " << step;
        }
      }
    }
    ASSERT_TRUE(ckpt_shipper.PumpUntilSynced());
    ASSERT_TRUE(replay_shipper.PumpUntilSynced());
    ExpectIdentical(primary, by_ckpt);
    ExpectIdentical(primary, by_replay);
    ExpectIdentical(by_ckpt, by_replay);
    EXPECT_GE(ckpt_shipper.GetFollowerStatus(0).checkpoints_shipped, 1u);
    EXPECT_EQ(replay_shipper.GetFollowerStatus(0).checkpoints_shipped, 0u);
  }
}

TEST(CheckpointBootstrapTest, CorruptBlobIsRefusedWithoutWipingTheStore) {
  VirtualClock clock;
  CommunixServer primary(clock, RoleOptions(ServerRole::kPrimary));
  CommunixServer follower(clock, RoleOptions(ServerRole::kFollower));
  Feed(primary, 40);

  // Bootstrap the follower legitimately first, so there is state to lose.
  net::InprocTransport to_follower(follower);
  LogShipper shipper(primary, LogShipper::Options{.batch_limit = 64,
                                                  .checkpoint_lag_threshold =
                                                      16});
  shipper.AddFollower("f0", to_follower);
  ASSERT_TRUE(shipper.PumpUntilSynced());
  ASSERT_EQ(follower.db_size(), 40u);
  const auto before = follower.GetSince(0);
  const std::uint64_t epoch_before = follower.epoch();

  const auto repl_token = follower.IssueToken(kReplicationPeerId);

  // A corrupted blob must bounce with kDataLoss and change nothing.
  auto corrupt_blob = primary.CaptureCheckpointBlob(*primary.log());
  corrupt_blob[corrupt_blob.size() / 2] ^= 0x10;
  net::CheckpointTransfer corrupt;
  corrupt.token.assign(repl_token.begin(), repl_token.end());
  corrupt.blob = corrupt_blob;
  const auto resp1 = follower.Handle(net::BuildCheckpointRequest(corrupt));
  EXPECT_FALSE(resp1.ok());
  EXPECT_EQ(resp1.code, ErrorCode::kDataLoss);
  EXPECT_EQ(follower.db_size(), 40u);
  EXPECT_EQ(follower.GetSince(0), before);
  EXPECT_EQ(follower.epoch(), epoch_before);
  EXPECT_EQ(follower.GetStats().checkpoints_refused, 1u);

  // A blob without a lineage epoch is refused too (a v1-style snapshot
  // cannot anchor the follower to any primary).
  net::CheckpointTransfer no_epoch;
  no_epoch.token.assign(repl_token.begin(), repl_token.end());
  no_epoch.blob = store::SerializeCheckpoint(store::SignatureLog(0));
  const auto resp2 = follower.Handle(net::BuildCheckpointRequest(no_epoch));
  EXPECT_FALSE(resp2.ok());
  EXPECT_EQ(follower.db_size(), 40u);

  // An unauthenticated blob never reaches validation at all.
  net::CheckpointTransfer bad_token;
  bad_token.token.assign(16, 0x5A);
  bad_token.blob = primary.CaptureCheckpointBlob(*primary.log());
  const auto resp3 = follower.Handle(net::BuildCheckpointRequest(bad_token));
  EXPECT_FALSE(resp3.ok());
  EXPECT_EQ(follower.db_size(), 40u);

  // And the primary itself refuses the verb outright.
  net::CheckpointTransfer to_primary;
  to_primary.token.assign(repl_token.begin(), repl_token.end());
  to_primary.blob = primary.CaptureCheckpointBlob(*primary.log());
  EXPECT_FALSE(primary.Handle(net::BuildCheckpointRequest(to_primary)).ok());
  EXPECT_EQ(primary.db_size(), 40u);

  // After all the abuse, legitimate shipping still works.
  Feed(primary, 5, /*salt=*/700);
  ASSERT_TRUE(shipper.PumpUntilSynced());
  ExpectIdentical(primary, follower);
}

}  // namespace
}  // namespace communix
