#include "dimmunix/history.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace communix::dimmunix {

namespace {
constexpr std::uint32_t kHistoryMagic = 0x44494D58;  // "DIMX"
constexpr std::uint32_t kHistoryVersion = 1;
}  // namespace

int History::Add(Signature sig, SignatureOrigin origin, TimePoint now) {
  const std::uint64_t content = sig.ContentId();
  if (by_content_.count(content) > 0) return -1;
  const std::size_t index = records_.size();
  records_.push_back(
      SignatureRecord{std::move(sig), origin, false, now, content});
  by_content_.emplace(content, index);
  changed_.records.push_back(index);
  return static_cast<int>(index);
}

void History::Replace(std::size_t index, Signature sig) {
  SignatureRecord& rec = records_.at(index);
  const std::uint64_t old_content = rec.content_id;
  by_content_.erase(old_content);
  rec.sig = std::move(sig);
  rec.content_id = rec.sig.ContentId();
  by_content_.emplace(rec.content_id, index);
  changed_.records.push_back(index);
  // A replace that actually changed the content retires the old id (the
  // merged/general signature supersedes it server-side too).
  if (rec.content_id != old_content) {
    retired_content_ids_.push_back(old_content);
  }
}

bool History::Disable(std::uint64_t content_id) {
  auto it = by_content_.find(content_id);
  if (it == by_content_.end()) return false;
  // Only the false→true transition retires: re-disabling an already
  // disabled record must not re-enqueue it every FP hit.
  if (!records_[it->second].disabled) {
    retired_content_ids_.push_back(content_id);
  }
  records_[it->second].disabled = true;
  changed_.records.push_back(it->second);
  return true;
}

bool History::ReEnable(std::uint64_t content_id) {
  auto it = by_content_.find(content_id);
  if (it == by_content_.end()) return false;
  records_[it->second].disabled = false;
  changed_.records.push_back(it->second);
  return true;
}

std::optional<std::vector<std::size_t>> History::TakeChangedRecords() {
  const bool whole = changed_.whole;
  std::vector<std::size_t> out;
  out.swap(changed_.records);
  changed_.whole = false;
  if (whole) return std::nullopt;
  return out;
}

std::vector<std::uint64_t> History::TakeRetiredContentIds() {
  std::vector<std::uint64_t> out;
  out.swap(retired_content_ids_);
  return out;
}

std::vector<std::size_t> History::FindByBugKey(std::uint64_t bug_key) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].sig.BugKey() == bug_key) out.push_back(i);
  }
  return out;
}

Status History::SaveToFile(const std::string& path) const {
  BinaryWriter w;
  w.WriteU32(kHistoryMagic);
  w.WriteU32(kHistoryVersion);
  w.WriteU32(static_cast<std::uint32_t>(records_.size()));
  for (const SignatureRecord& rec : records_) {
    w.WriteU8(static_cast<std::uint8_t>(rec.origin));
    w.WriteU8(rec.disabled ? 1 : 0);
    w.WriteI64(rec.added_at);
    rec.sig.Serialize(w);
  }
  // Write via a temp file + rename for crash consistency.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(w.data().data()),
              static_cast<std::streamsize>(w.size()));
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Error(ErrorCode::kUnavailable,
                         "rename failed: " + ec.message());
  }
  return Status::Ok();
}

Result<History> History::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  BinaryReader r(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  if (r.ReadU32() != kHistoryMagic || r.ReadU32() != kHistoryVersion) {
    return Status::Error(ErrorCode::kDataLoss, "bad history header: " + path);
  }
  const std::uint32_t count = r.ReadU32();
  History h;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto origin = static_cast<SignatureOrigin>(r.ReadU8());
    const bool disabled = r.ReadU8() != 0;
    const TimePoint added = r.ReadI64();
    auto sig = Signature::Deserialize(r);
    if (!sig || !r.ok()) {
      return Status::Error(ErrorCode::kDataLoss,
                           "corrupt history record in " + path);
    }
    const int idx = h.Add(std::move(*sig), origin, added);
    if (idx >= 0 && disabled) {
      h.records_[static_cast<std::size_t>(idx)].disabled = true;
    }
  }
  return h;
}

}  // namespace communix::dimmunix
