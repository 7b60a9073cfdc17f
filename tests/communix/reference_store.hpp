// Reference model of the signature store's ADD decision and GET reply,
// written from the paper's §III-C rules rather than from the store's
// code, for the store tests to compare against. It shares nothing with
// store::SignatureStore::Add: ordered containers under no lock, its own
// top-frame sets, and dedup on the signature bytes, not a content hash.
//
// The rules, in the order they apply to one ADD from `sender` on clock
// day `day`:
//   1. Per-user day quota (§III-C1): at most per_user_daily_limit ADDs
//      are *processed* per user per day. Every ADD that passes this rule
//      counts, whatever its outcome.
//   2. Community quota: when per_tenant_daily_limit is not 0, at most
//      that many ADDs that passed rule 1 are processed per community
//      (CommunityOf(sender)) per day.
//   3. Adjacency (§III-C2): refused if its top frames and those of a
//      signature this user had accepted share some but not all frames.
//   4. Dedup: refused if the same signature bytes were accepted before.
//   5. Otherwise the signature is appended at the next index.
// The GET(from) reply is the u32 count of entries [from, size) followed
// by each entry's u32 length and bytes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "communix/ids.hpp"
#include "communix/store/signature_store.hpp"
#include "dimmunix/signature.hpp"
#include "util/serde.hpp"

namespace communix::testutil {

class ReferenceStore {
 public:
  using Bytes = std::vector<std::uint8_t>;

  /// How many ADDs ended in each outcome.
  struct Counts {
    std::uint64_t accepted = 0;
    std::uint64_t duplicate = 0;
    std::uint64_t rate_limited = 0;
    std::uint64_t tenant_rate_limited = 0;
    std::uint64_t adjacent = 0;
  };

  explicit ReferenceStore(const store::Limits& limits) : limits_(limits) {}

  store::AddOutcome Add(UserId sender, std::int64_t day,
                        const dimmunix::Signature& sig) {
    const store::AddOutcome outcome = Decide(sender, day, sig);
    switch (outcome) {
      case store::AddOutcome::kAccepted: ++counts_.accepted; break;
      case store::AddOutcome::kDuplicate: ++counts_.duplicate; break;
      case store::AddOutcome::kRateLimited: ++counts_.rate_limited; break;
      case store::AddOutcome::kTenantRateLimited:
        ++counts_.tenant_rate_limited;
        break;
      case store::AddOutcome::kAdjacent: ++counts_.adjacent; break;
    }
    return outcome;
  }

  /// The serialized signatures at indexes [from, size()).
  std::vector<Bytes> Since(std::uint64_t from) const {
    if (from >= db_.size()) return {};
    return std::vector<Bytes>(db_.begin() + static_cast<std::ptrdiff_t>(from),
                              db_.end());
  }

  /// The GET(from) reply payload.
  Bytes Get(std::uint64_t from) const {
    const std::vector<Bytes> entries = Since(from);
    BinaryWriter w;
    w.WriteU32(static_cast<std::uint32_t>(entries.size()));
    for (const Bytes& entry : entries) w.WriteBytes(entry);
    return w.take();
  }

  const Counts& counts() const { return counts_; }

 private:
  using Tops = std::set<std::uint64_t>;

  struct DayQuota {
    std::int64_t day = 0;
    std::size_t used = 0;
  };

  /// Uses one unit of `quota` on `day`; false when the day's `limit` is
  /// already used up.
  static bool Use(DayQuota& quota, std::int64_t day, std::size_t limit) {
    if (quota.day != day) quota = DayQuota{day, 0};
    if (quota.used >= limit) return false;
    ++quota.used;
    return true;
  }

  static Tops TopsOf(const dimmunix::Signature& sig) {
    Tops tops;
    for (const auto& entry : sig.entries()) {
      for (const auto* stack : {&entry.outer, &entry.inner}) {
        if (!stack->empty()) tops.insert(stack->TopKey());
      }
    }
    return tops;
  }

  store::AddOutcome Decide(UserId sender, std::int64_t day,
                           const dimmunix::Signature& sig) {
    if (!Use(user_quota_[sender], day, limits_.per_user_daily_limit)) {
      return store::AddOutcome::kRateLimited;
    }
    if (limits_.per_tenant_daily_limit != 0 &&
        !Use(community_quota_[CommunityOf(sender)], day,
             limits_.per_tenant_daily_limit)) {
      return store::AddOutcome::kTenantRateLimited;
    }
    const Tops tops = TopsOf(sig);
    std::vector<Tops>& accepted = accepted_tops_[sender];
    if (limits_.adjacency_check_enabled) {
      for (const Tops& prior : accepted) {
        bool shares_one = false;
        for (std::uint64_t top : tops) shares_one |= prior.count(top) > 0;
        if (shares_one && prior != tops) return store::AddOutcome::kAdjacent;
      }
    }
    Bytes bytes = sig.ToBytes();
    if (!accepted_bytes_.insert(bytes).second) {
      return store::AddOutcome::kDuplicate;
    }
    accepted.push_back(tops);
    db_.push_back(std::move(bytes));
    return store::AddOutcome::kAccepted;
  }

  store::Limits limits_;
  std::map<UserId, DayQuota> user_quota_;
  std::map<CommunityId, DayQuota> community_quota_;
  std::map<UserId, std::vector<Tops>> accepted_tops_;
  std::set<Bytes> accepted_bytes_;
  std::vector<Bytes> db_;
  Counts counts_;
};

}  // namespace communix::testutil
