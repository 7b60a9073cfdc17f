// Encrypted user ids (§III-C2).
//
// The Communix server binds every uploaded signature to the user who sent
// it, so that (a) adjacent signatures from one user can be rejected and
// (b) each user is limited to 10 signatures/day. IP addresses are
// forgeable, so the server issues each user an opaque token: the AES-128
// encryption, under a predefined server key, of the user id plus a magic
// and a checksum. Users cannot mint tokens (any forged block decrypts to
// a failing checksum), reproducing "it must be hard for an attacker to
// obtain multiple ids".
//
// Like the paper, we do not build a full account-issuance service; the
// IdAuthority is the server-side primitive such a service would wrap.
#pragma once

#include <cstdint>
#include <optional>

#include "util/aes128.hpp"

namespace communix {

using UserId = std::uint64_t;
using UserToken = AesBlock;

/// Per-application community id.
///
/// The user-id namespace is partitioned per application: the top 16 bits
/// of a UserId name the community the user belongs to, the low 48 bits
/// the member within it. The per-community daily quota
/// (store::Limits::per_tenant_daily_limit) keys off this split, so a
/// token decode yields both principal and community in one step and the
/// signature wire format is untouched (signatures carry no app id; the
/// sender id is the community authority). Seed-era user ids (small
/// integers) all land in community 0.
using CommunityId = std::uint64_t;

constexpr unsigned kCommunityShift = 48;
constexpr UserId kCommunityMemberMask = (UserId{1} << kCommunityShift) - 1;

constexpr UserId MakeUserId(CommunityId community, std::uint64_t member) {
  return (community << kCommunityShift) | (member & kCommunityMemberMask);
}

constexpr CommunityId CommunityOf(UserId user) {
  return user >> kCommunityShift;
}

/// Reserved principal for intra-cluster replication: kReplBatch frames
/// must carry the token of this id (minted by the primary's own
/// IdAuthority — every node of a cluster shares the server key), so a
/// community member cannot wipe or repopulate a follower. The server
/// refuses to issue this id over the wire (kIssueId).
constexpr UserId kReplicationPeerId = ~UserId{0};

/// The paper's "predefined 128-bit key".
constexpr AesKey kDefaultServerKey = {0xC0, 0x4D, 0x4D, 0x55, 0x4E, 0x49,
                                      0x58, 0x11, 0x20, 0x06, 0x20, 0x11,
                                      0xDE, 0xAD, 0x10, 0xCC};

class IdAuthority {
 public:
  explicit IdAuthority(const AesKey& key = kDefaultServerKey);

  /// Issues the encrypted token for `user`.
  UserToken Issue(UserId user) const;

  /// Decrypts and verifies a token; nullopt if forged/corrupt.
  std::optional<UserId> Decode(const UserToken& token) const;

 private:
  Aes128 cipher_;
};

}  // namespace communix
