#include "communix/store/checkpoint.hpp"

#include <algorithm>
#include <unordered_set>

#include "communix/store/signature_store.hpp"
#include "dimmunix/signature.hpp"
#include "util/fnv.hpp"
#include "util/serde.hpp"

namespace communix::store {

namespace {

constexpr std::uint32_t kDbMagic = 0x434D5342;  // "CMSB"
constexpr std::uint32_t kVersionV1 = 1;         // seed layout, no epoch
constexpr std::uint32_t kVersionV2 = 2;         // +epoch in the header
constexpr std::uint32_t kVersionV3 = 3;         // framed + checksummed

constexpr std::uint8_t kFlagSuperseded = 0x01;
constexpr std::uint8_t kKnownFlags = kFlagSuperseded;

/// Smallest encoded record (an empty signature): sender, added_at and the
/// u32 length, plus the flags byte in v3. A count the remaining bytes
/// cannot hold at this size is refused before anything is reserved for it.
constexpr std::size_t kMinLegacyRecordBytes = 8 + 8 + 4;
constexpr std::size_t kMinV3RecordBytes = 1 + kMinLegacyRecordBytes;

Status Corrupt(const char* what) {
  return Status::Error(ErrorCode::kDataLoss, what);
}

/// Validates one record's signature bytes and rebuilds the derived
/// state every install needs: the content id (dedup) and the top-frame
/// set (per-user adjacency restriction, which must keep holding across
/// restarts and bootstraps). The daily quota intentionally resets.
Status FinishRecord(CheckpointRecord& rec,
                    std::unordered_set<std::uint64_t>& seen_content_ids) {
  auto sig = dimmunix::Signature::FromBytes(std::span<const std::uint8_t>(
      rec.entry.bytes.data(), rec.entry.bytes.size()));
  if (!sig) return Corrupt("stored signature fails to parse");
  rec.entry.content_id = sig->ContentId();
  if (!seen_content_ids.insert(rec.entry.content_id).second) {
    return Corrupt("checkpoint repeats a content id");
  }
  rec.tops = TopFrameSet(*sig);
  return Status::Ok();
}

/// v1/v2 body: u32 count, then unframed records (no flags byte, no
/// checksums — the layouts this repo has shipped since the seed).
Status ParseLegacyBody(BinaryReader& r, CheckpointData& data) {
  const std::uint32_t count = r.ReadU32();
  if (!r.ok()) return Corrupt("truncated server DB header");
  if (count > r.remaining() / kMinLegacyRecordBytes) {
    return Corrupt("server DB record count exceeds the file");
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count);
  data.records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    CheckpointRecord rec;
    rec.entry.sender = r.ReadU64();
    rec.entry.added_at = r.ReadI64();
    rec.entry.bytes = r.ReadBytes();
    if (!r.ok()) return Corrupt("corrupt server DB record");
    if (auto s = FinishRecord(rec, seen); !s.ok()) return s;
    data.records.push_back(std::move(rec));
  }
  return Status::Ok();
}

/// FNV over the v3 header's metadata fields (epoch, total_count,
/// frame_count). Frame checksums cover only frame payloads; without
/// this, a bit flip in the epoch would parse as a *valid* checkpoint of
/// a different lineage.
std::uint64_t HeaderChecksum(std::uint64_t epoch, std::uint64_t total_count,
                             std::uint32_t frame_count) {
  BinaryWriter hdr;
  hdr.WriteU64(epoch);
  hdr.WriteU64(total_count);
  hdr.WriteU32(frame_count);
  return Fnv1a(
      std::span<const std::uint8_t>(hdr.data().data(), hdr.size()));
}

Status ParseV3Body(BinaryReader& r, CheckpointData& data) {
  const std::uint64_t total_count = r.ReadU64();
  const std::uint32_t frame_count = r.ReadU32();
  const std::uint64_t header_checksum = r.ReadU64();
  if (!r.ok()) return Corrupt("truncated checkpoint header");
  if (HeaderChecksum(data.epoch, total_count, frame_count) !=
      header_checksum) {
    return Corrupt("checkpoint header checksum mismatch");
  }
  if (total_count > r.remaining() / kMinV3RecordBytes) {
    return Corrupt("checkpoint entry count exceeds the blob");
  }
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(total_count);
  data.records.reserve(total_count);
  for (std::uint32_t f = 0; f < frame_count; ++f) {
    const std::uint32_t entry_count = r.ReadU32();
    const std::uint32_t payload_len = r.ReadU32();
    const std::uint64_t checksum = r.ReadU64();
    if (!r.ok()) return Corrupt("truncated checkpoint frame header");
    if (entry_count == 0 || entry_count > kCheckpointFrameEntries) {
      return Corrupt("checkpoint frame entry count out of range");
    }
    const std::vector<std::uint8_t> payload = r.ReadRaw(payload_len);
    if (!r.ok()) return Corrupt("truncated checkpoint frame payload");
    if (Fnv1a(std::span<const std::uint8_t>(payload.data(), payload.size())) !=
        checksum) {
      return Corrupt("checkpoint frame checksum mismatch");
    }
    BinaryReader body(
        std::span<const std::uint8_t>(payload.data(), payload.size()));
    for (std::uint32_t i = 0; i < entry_count; ++i) {
      CheckpointRecord rec;
      const std::uint8_t flags = body.ReadU8();
      rec.entry.sender = body.ReadU64();
      rec.entry.added_at = body.ReadI64();
      rec.entry.bytes = body.ReadBytes();
      if (!body.ok()) return Corrupt("corrupt checkpoint record");
      if ((flags & ~kKnownFlags) != 0) {
        return Corrupt("checkpoint record carries unknown flags");
      }
      rec.entry.superseded = (flags & kFlagSuperseded) != 0;
      if (auto s = FinishRecord(rec, seen); !s.ok()) return s;
      data.records.push_back(std::move(rec));
    }
    if (!body.AtEnd()) return Corrupt("checkpoint frame payload overlong");
  }
  if (data.records.size() != total_count) {
    return Corrupt("checkpoint entry count mismatch (truncated?)");
  }
  return Status::Ok();
}

}  // namespace

std::vector<std::uint8_t> SerializeCheckpoint(
    std::uint64_t epoch, std::span<const StoredSignature> entries) {
  const std::size_t frame_count =
      (entries.size() + kCheckpointFrameEntries - 1) / kCheckpointFrameEntries;
  BinaryWriter w;
  w.WriteU32(kDbMagic);
  w.WriteU32(kVersionV3);
  w.WriteU64(epoch);
  w.WriteU64(entries.size());
  w.WriteU32(static_cast<std::uint32_t>(frame_count));
  w.WriteU64(HeaderChecksum(epoch, entries.size(),
                            static_cast<std::uint32_t>(frame_count)));
  for (std::size_t base = 0; base < entries.size();
       base += kCheckpointFrameEntries) {
    const std::size_t n =
        std::min(kCheckpointFrameEntries, entries.size() - base);
    BinaryWriter frame;
    for (std::size_t i = 0; i < n; ++i) {
      const StoredSignature& s = entries[base + i];
      frame.WriteU8(s.superseded ? kFlagSuperseded : 0);
      frame.WriteU64(s.sender);
      frame.WriteI64(s.added_at);
      frame.WriteBytes(
          std::span<const std::uint8_t>(s.bytes.data(), s.bytes.size()));
    }
    w.WriteU32(static_cast<std::uint32_t>(n));
    w.WriteU32(static_cast<std::uint32_t>(frame.size()));
    w.WriteU64(Fnv1a(
        std::span<const std::uint8_t>(frame.data().data(), frame.size())));
    w.WriteRaw(std::span<const std::uint8_t>(frame.data().data(),
                                             frame.size()));
  }
  return w.take();
}

Status ParseCheckpoint(std::span<const std::uint8_t> bytes,
                       CheckpointData* out) {
  BinaryReader r(bytes);
  const std::uint32_t magic = r.ReadU32();
  const std::uint32_t version = r.ReadU32();
  if (!r.ok() || magic != kDbMagic ||
      (version != kVersionV1 && version != kVersionV2 &&
       version != kVersionV3)) {
    return Corrupt("bad server DB header");
  }
  CheckpointData data;
  data.epoch = version >= kVersionV2 ? r.ReadU64() : 0;
  Status s = version == kVersionV3 ? ParseV3Body(r, data)
                                   : ParseLegacyBody(r, data);
  if (!s.ok()) return s;
  if (!r.AtEnd()) return Corrupt("trailing bytes after server DB body");
  *out = std::move(data);
  return Status::Ok();
}

}  // namespace communix::store
