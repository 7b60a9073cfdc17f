#include "communix/repository.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>

#include "util/serde.hpp"

namespace communix {

namespace {
constexpr std::uint32_t kRepoMagic = 0x434D5250;  // "CMRP"
constexpr std::uint32_t kRepoVersion = 1;
}  // namespace

std::uint64_t LocalRepository::next_server_index() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void LocalRepository::Append(
    std::vector<std::vector<std::uint8_t>> sig_bytes) {
  std::lock_guard lock(mu_);
  for (auto& bytes : sig_bytes) {
    entries_.push_back(Entry{std::move(bytes), SigState::kNew});
  }
}

std::size_t LocalRepository::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

void LocalRepository::ForEachInState(
    SigState state,
    const std::function<SigState(std::size_t, const Entry&)>& fn) {
  // Snapshot indexes first: fn may be slow (validation) and must not run
  // under the lock (the client daemon appends concurrently).
  std::vector<std::size_t> indexes;
  {
    std::lock_guard lock(mu_);
    const std::size_t from = state == SigState::kNew ? first_new_ : 0;
    for (std::size_t i = from; i < entries_.size(); ++i) {
      if (entries_[i].state == state) indexes.push_back(i);
    }
  }
  for (std::size_t i : indexes) {
    Entry copy;
    {
      std::lock_guard lock(mu_);
      copy = entries_[i];
      if (copy.state != state) continue;  // changed concurrently
    }
    const SigState next = fn(i, copy);
    std::lock_guard lock(mu_);
    entries_[i].state = next;
    if (next == SigState::kNew) first_new_ = std::min(first_new_, i);
    while (first_new_ < entries_.size() &&
           entries_[first_new_].state != SigState::kNew) {
      ++first_new_;
    }
  }
}

SigState LocalRepository::state(std::size_t index) const {
  std::lock_guard lock(mu_);
  return entries_.at(index).state;
}

std::vector<std::uint8_t> LocalRepository::bytes(std::size_t index) const {
  std::lock_guard lock(mu_);
  return entries_.at(index).bytes;
}

LocalRepository::Counts LocalRepository::GetCounts() const {
  std::lock_guard lock(mu_);
  Counts c;
  c.total = entries_.size();
  for (const Entry& e : entries_) {
    switch (e.state) {
      case SigState::kNew: ++c.fresh; break;
      case SigState::kAccepted: ++c.accepted; break;
      case SigState::kRejectedMalformed: ++c.rejected_malformed; break;
      case SigState::kRejectedHash: ++c.rejected_hash; break;
      case SigState::kRejectedDepth: ++c.rejected_depth; break;
      case SigState::kRejectedNesting: ++c.rejected_nesting; break;
    }
  }
  return c;
}

Status LocalRepository::SaveToFile(const std::string& path) const {
  BinaryWriter w;
  {
    std::lock_guard lock(mu_);
    w.WriteU32(kRepoMagic);
    w.WriteU32(kRepoVersion);
    w.WriteU32(static_cast<std::uint32_t>(entries_.size()));
    for (const Entry& e : entries_) {
      w.WriteU8(static_cast<std::uint8_t>(e.state));
      w.WriteBytes(std::span<const std::uint8_t>(e.bytes.data(),
                                                 e.bytes.size()));
    }
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "short write " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Error(ErrorCode::kUnavailable, "rename: " + ec.message());
  }
  return Status::Ok();
}

Status LocalRepository::LoadFromFile(const std::string& path,
                                     LocalRepository& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  BinaryReader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  if (r.ReadU32() != kRepoMagic || r.ReadU32() != kRepoVersion) {
    return Status::Error(ErrorCode::kDataLoss, "bad repository header");
  }
  const std::uint32_t count = r.ReadU32();
  std::vector<Entry> entries;
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry e;
    e.state = static_cast<SigState>(r.ReadU8());
    e.bytes = r.ReadBytes();
    if (!r.ok()) {
      return Status::Error(ErrorCode::kDataLoss, "corrupt repository entry");
    }
    entries.push_back(std::move(e));
  }
  std::size_t first_new = 0;
  while (first_new < entries.size() &&
         entries[first_new].state != SigState::kNew) {
    ++first_new;
  }
  std::lock_guard lock(out.mu_);
  out.entries_ = std::move(entries);
  out.first_new_ = first_new;
  return Status::Ok();
}

}  // namespace communix
