#include "ledger/catalogue.hpp"

#include <algorithm>

#include "net/message.hpp"
#include "util/serde.hpp"

namespace ledger {

using communix::ErrorCode;
using communix::dimmunix::CallStack;
using communix::dimmunix::Frame;
using communix::dimmunix::Signature;
using communix::dimmunix::SignatureEntry;

namespace {

// The storm's shape. The batch share and the per-user quota follow the
// benchmark's specification and the server's rule; the Zipf exponent and
// the class shares are unverified choices that make every class occur
// thousands of times in a run (perfbench/README.md, "Where the traffic
// comes from").
constexpr double kZipfS = 1.1;
constexpr double kForgedShare = 0.03;     // of users
constexpr double kOverQuotaShare = 0.08;  // of users
constexpr double kVariantShare = 0.10;    // of a user's uploads after the first
constexpr double kBatchShare = 0.20;      // of frames
constexpr std::size_t kActiveUsers = 32;  // users interleaved at once
constexpr std::size_t kPerUserLimit = 10;  // the server's daily quota

}  // namespace

Signature BugSignature(const std::string& ns, std::uint64_t id,
                       std::uint32_t variant) {
  const std::string bug = "org.community." + ns + ".Bug" + std::to_string(id);
  auto stack = [&](int thread, bool inner) {
    std::vector<Frame> frames;
    // A shared driver chain below the bug-specific frames, outermost
    // first, as captured stacks are.
    for (std::uint32_t d = 0; d < 4; ++d) {
      frames.emplace_back("org.community.Worker" + std::to_string(thread),
                          "step" + std::to_string(d), 10 * (d + 1));
    }
    frames.emplace_back(bug, "enter" + std::to_string(thread), 40);
    const std::uint32_t top_variant = thread == 1 ? variant : 0;
    frames.emplace_back(bug + (top_variant ? "$v" + std::to_string(top_variant)
                                           : std::string()),
                        inner ? "lockInner" : "lockOuter",
                        static_cast<std::uint32_t>(50 + thread));
    return CallStack(std::move(frames));
  };
  std::vector<SignatureEntry> entries;
  for (int t = 0; t < 2; ++t) {
    entries.push_back(SignatureEntry{stack(t, false), stack(t, true)});
  }
  return Signature(std::move(entries));
}

std::vector<std::uint8_t> AddRequestBody(const communix::UserToken& token,
                                         const std::vector<std::uint8_t>& sig) {
  communix::BinaryWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(token.data(), token.size()));
  w.WriteRaw(std::span<const std::uint8_t>(sig.data(), sig.size()));
  communix::net::Request req;
  req.type = communix::net::MsgType::kAddSignature;
  req.payload = w.take();
  return req.Serialize();
}

bool Allowed(AddClass c, ErrorCode code) {
  switch (c) {
    case AddClass::kOwn:
      return code == ErrorCode::kOk;
    case AddClass::kCatalogue:
      return code == ErrorCode::kOk || code == ErrorCode::kAlreadyExists;
    case AddClass::kVariant:
    case AddClass::kForged:
      return code == ErrorCode::kPermissionDenied;
    case AddClass::kOverQuota:
      return code == ErrorCode::kResourceExhausted;
  }
  return false;
}

StormPlan::StormPlan(const StormSpec& spec, std::size_t max_users)
    : spec_(spec),
      rng_(spec.seed),
      zipf_(spec.catalogue, kZipfS) {
  catalogue_bytes_.reserve(spec_.catalogue);
  for (std::size_t i = 0; i < spec_.catalogue; ++i) {
    catalogue_bytes_.push_back(BugSignature("catalogue", i).ToBytes());
  }
  // Tokens are minted up front, so the timed window only assembles
  // frames from ready parts.
  tokens_.reserve(max_users);
  for (std::size_t i = 0; i < max_users; ++i) {
    tokens_.push_back(authority_.Issue(spec_.first_user + i));
  }
  for (std::size_t i = 0; i < kActiveUsers && i < max_users; ++i) {
    active_.push_back(MakeUser());
  }
}

StormPlan::UserPlan StormPlan::MakeUser() {
  UserPlan u;
  u.user = spec_.first_user + users_started_;
  u.token = tokens_[users_started_++];
  u.forged = rng_.NextDouble() < kForgedShare;
  if (u.forged) {
    for (auto& b : u.token) b = static_cast<std::uint8_t>(rng_.NextU64());
  }
  const bool over = !u.forged && rng_.NextDouble() < kOverQuotaShare;
  const std::size_t n =
      u.forged ? 1 + rng_.NextBounded(2)
      : over   ? kPerUserLimit + 1 + rng_.NextBounded(3)
               : 2 + rng_.NextBounded(7);

  struct Upload {
    AddClass cls;
    std::uint32_t catalogue;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Upload> uploads;
  std::uint32_t variants = 0;
  for (std::size_t j = 0; j < n; ++j) {
    Upload up{AddClass::kCatalogue, ~0u, {}};
    if (j == 0) {
      up.cls = AddClass::kOwn;
      up.bytes = BugSignature("own", u.user).ToBytes();
    } else if (rng_.NextDouble() < kVariantShare) {
      up.cls = AddClass::kVariant;
      up.bytes = BugSignature("own", u.user, ++variants).ToBytes();
    } else {
      up.catalogue = static_cast<std::uint32_t>(zipf_.Sample(rng_));
      up.bytes = catalogue_bytes_[up.catalogue];
    }
    if (u.forged) {
      up.cls = AddClass::kForged;
      up.catalogue = ~0u;
    } else if (j >= kPerUserLimit) {
      up.cls = AddClass::kOverQuota;
      up.catalogue = ~0u;
    }
    uploads.push_back(std::move(up));
  }

  for (std::size_t j = 0; j < uploads.size();) {
    auto f = std::make_shared<PlannedFrame>();
    f->token = u.token;
    std::size_t take = 1;
    if (rng_.NextDouble() < kBatchShare) {
      take = std::min<std::size_t>(2 + rng_.NextBounded(3), uploads.size() - j);
      f->batch = true;
    }
    for (std::size_t k = 0; k < take; ++k) {
      f->classes.push_back(uploads[j + k].cls);
      f->catalogue.push_back(uploads[j + k].catalogue);
      f->sigs.push_back(std::move(uploads[j + k].bytes));
    }
    if (f->batch) {
      f->body = communix::net::BuildAddBatchRequest(
                    std::span<const std::uint8_t>(u.token.data(), u.token.size()),
                    std::span<const std::vector<std::uint8_t>>(f->sigs.data(),
                                                               f->sigs.size()))
                    .Serialize();
    } else {
      f->body = AddRequestBody(u.token, f->sigs.front());
    }
    u.frames.push_back(std::move(f));
    j += take;
  }
  return u;
}

std::shared_ptr<const PlannedFrame> StormPlan::Next() {
  if (active_.empty()) return nullptr;
  const std::size_t slot = rng_.NextBounded(active_.size());
  UserPlan& u = active_[slot];
  auto frame = u.frames[u.next++];
  if (u.next == u.frames.size()) {
    if (users_started_ < tokens_.size()) {
      active_[slot] = MakeUser();
    } else {
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(slot));
    }
  }
  return frame;
}

std::uint64_t StormTally::Check(const PlannedFrame& f,
                                const std::vector<ErrorCode>& codes) {
  std::uint64_t bad = 0;
  if (codes.size() != f.classes.size()) {
    status_violations += f.classes.size();
    return f.classes.size();
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    ++sigs_sent;
    const AddClass c = f.classes[i];
    if (c == AddClass::kForged) ++forged_sigs;
    if (c == AddClass::kOwn) ++own_accepted;
    if (c == AddClass::kCatalogue) catalogue_seen.insert(f.catalogue[i]);
    if (!Allowed(c, codes[i])) ++bad;
  }
  status_violations += bad;
  return bad;
}

}  // namespace ledger
