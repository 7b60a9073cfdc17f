// Generated ADD traffic: deterministic deadlock signatures and the
// upload-storm request plan.
//
// Every signature is a two-thread signature whose per-thread top frames
// are unique to its (namespace, bug id), so two distinct bugs never share
// a top frame and the server's adjacency rule (§III-C2) never fires
// between them. A *variant* keeps thread 0's top frame and replaces
// thread 1's: sent by the same user after the original, it shares some
// but not all top frames and must be refused as adjacent.
//
// The plan gives each request a class whose allowed reply statuses are
// fixed in advance, and every user's requests ride one connection in
// order, so the per-user quota outcome is exact and the number of
// accepted ADDs is predictable whatever the cross-user interleaving:
// each user's own bug once, plus each catalogue bug once (first arrival
// wins, the rest are duplicates).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "communix/ids.hpp"
#include "dimmunix/signature.hpp"
#include "ledger/stats.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ledger {

/// Two-thread signature of bug `id` in namespace `ns`; variant > 0 swaps
/// thread 1's top frame (adjacent to variant 0).
communix::dimmunix::Signature BugSignature(const std::string& ns,
                                           std::uint64_t id,
                                           std::uint32_t variant = 0);

/// Serialized kAddSignature request body for `sig_bytes` under `token`.
std::vector<std::uint8_t> AddRequestBody(const communix::UserToken& token,
                                         const std::vector<std::uint8_t>& sig);

enum class AddClass : std::uint8_t {
  kOwn,        // the user's first upload, a bug only they report
  kCatalogue,  // a Zipf draw over the shared bug catalogue
  kVariant,    // adjacent variant of the user's own bug
  kOverQuota,  // any upload past the user's 10th of the day
  kForged,     // random token bytes
};

/// The reply statuses a request of class `c` may legally get.
bool Allowed(AddClass c, communix::ErrorCode code);

/// The storm's seeded inputs; its shape (class shares, Zipf exponent,
/// batch share) is fixed in catalogue.cpp.
struct StormSpec {
  std::uint64_t seed = 1;
  std::uint64_t first_user = 1;
  std::size_t catalogue = 5'000;  // distinct shared bugs
};

/// One planned ADD or ADD_BATCH frame.
struct PlannedFrame {
  std::vector<std::uint8_t> body;         // serialized net::Request
  std::vector<AddClass> classes;          // per signature
  std::vector<std::uint32_t> catalogue;   // per signature; ~0u if none
  std::vector<std::vector<std::uint8_t>> sigs;  // serialized signatures
  communix::UserToken token{};
  bool batch = false;
};

/// Deterministic storm of per-user request sequences from up to
/// `max_users` users, whose tokens are minted at construction.
class StormPlan {
 public:
  StormPlan(const StormSpec& spec, std::size_t max_users);
  /// The next frame; null once every user's plan has been sent.
  std::shared_ptr<const PlannedFrame> Next();

 private:
  struct UserPlan {
    std::uint64_t user = 0;
    communix::UserToken token{};
    bool forged = false;
    std::vector<std::shared_ptr<const PlannedFrame>> frames;
    std::size_t next = 0;
  };
  UserPlan MakeUser();

  StormSpec spec_;
  communix::Rng rng_;
  communix::IdAuthority authority_;
  std::vector<std::vector<std::uint8_t>> catalogue_bytes_;
  ZipfSampler zipf_;
  std::vector<communix::UserToken> tokens_;
  std::vector<UserPlan> active_;
  std::uint64_t users_started_ = 0;
};

/// Running tally of what the storm's replies must add up to.
struct StormTally {
  std::uint64_t sigs_sent = 0;       // every signature that got a reply
  std::uint64_t forged_sigs = 0;
  std::uint64_t own_accepted = 0;
  std::unordered_set<std::uint32_t> catalogue_seen;  // accepted once each
  std::uint64_t status_violations = 0;
  /// Checks one replied frame; returns how many statuses violated their
  /// class's allowed set.
  std::uint64_t Check(const PlannedFrame& f,
                      const std::vector<communix::ErrorCode>& codes);
  /// ADDs the server must have accepted from this tally's frames.
  std::uint64_t ExpectedAccepted() const {
    return own_accepted + catalogue_seen.size();
  }
};

}  // namespace ledger
