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
constexpr std::uint32_t kVersionV4 = 4;         // frames until end of file

constexpr std::uint8_t kFlagSuperseded = 0x01;
constexpr std::uint8_t kKnownFlags = kFlagSuperseded;

/// Smallest encoded record (an empty signature): sender, added_at and the
/// u32 length, plus the flags byte in v3 and v4. A count the remaining
/// bytes cannot hold at this size is refused before anything is reserved
/// for it.
constexpr std::size_t kMinLegacyRecordBytes = 8 + 8 + 4;
constexpr std::size_t kMinV3RecordBytes = 1 + kMinLegacyRecordBytes;

Status Corrupt(const char* what) {
  return Status::Error(ErrorCode::kDataLoss, what);
}

/// Validates one record's signature bytes and rebuilds the derived
/// state every install needs: the content id (dedup) and the top-frame
/// set (per-user adjacency restriction, which must keep holding across
/// restarts and replicated resets). The daily quota intentionally
/// resets.
Status FinishRecord(CheckpointRecord& rec,
                    std::unordered_set<std::uint64_t>& seen_content_ids) {
  auto sig = dimmunix::Signature::FromBytes(std::span<const std::uint8_t>(
      rec.entry.bytes.data(), rec.entry.bytes.size()));
  if (!sig) return Corrupt("stored signature fails to parse");
  rec.entry.content_id = sig->ContentId();
  if (!seen_content_ids.insert(rec.entry.content_id).second) {
    return Corrupt("repeated content id");
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

/// FNV over a v4 frame's entry_count and payload_len: a damaged length
/// fails it, so it cannot pass for a payload cut short by a kill.
std::uint64_t FrameHeaderChecksum(std::uint32_t entry_count,
                                  std::uint32_t payload_len) {
  return Fnv1aU64(entry_count | std::uint64_t{payload_len} << 32);
}

/// Bytes of a v4 frame header.
constexpr std::size_t kV4FrameHeaderBytes = 4 + 4 + 8 + 8;

/// Appends the records of `log` entries [from, upto) to `out`; returns
/// how many of them are marked superseded.
std::uint64_t EncodeRecords(const SignatureLog& log, std::uint64_t from,
                            std::uint64_t upto, BinaryWriter& out) {
  std::uint64_t superseded = 0;
  log.Visit(from, upto, [&](std::uint64_t i, const EntryView& e) {
    const bool marked = log.IsSuperseded(i);
    superseded += marked ? 1 : 0;
    out.WriteU8(marked ? kFlagSuperseded : 0);
    out.WriteU64(e.sender);
    out.WriteI64(e.added_at);
    out.WriteBytes(e.bytes);
  });
  return superseded;
}

/// Reads one frame's payload of `entry_count` records (v3 and v4 alike),
/// checks it against `checksum` and appends its records to `data`.
Status ParseFrame(BinaryReader& r, std::uint32_t entry_count,
                  std::uint32_t payload_len, std::uint64_t checksum,
                  std::unordered_set<std::uint64_t>& seen,
                  CheckpointData& data) {
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
  return Status::Ok();
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
    if (auto s = ParseFrame(r, entry_count, payload_len, checksum, seen, data);
        !s.ok()) {
      return s;
    }
  }
  if (data.records.size() != total_count) {
    return Corrupt("checkpoint entry count mismatch (truncated?)");
  }
  return Status::Ok();
}

/// The v4 body after the epoch: the header checksum, then frames until
/// end of file. Returns the length of the whole frames in `*v4_bytes`.
Status ParseV4Body(BinaryReader& r, std::size_t file_bytes,
                   CheckpointData& data, std::uint64_t* v4_bytes) {
  const std::uint64_t header_checksum = r.ReadU64();
  if (!r.ok()) return Corrupt("truncated DB file header");
  if (Fnv1aU64(data.epoch) != header_checksum) {
    return Corrupt("DB file header checksum mismatch");
  }
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t whole = file_bytes - r.remaining();
  // A final frame cut short (its header incomplete, or its payload
  // running past end of file) ends the loop and is dropped.
  while (r.remaining() >= kV4FrameHeaderBytes) {
    const std::uint32_t entry_count = r.ReadU32();
    const std::uint32_t payload_len = r.ReadU32();
    const std::uint64_t checksum = r.ReadU64();
    const std::uint64_t header_checksum = r.ReadU64();
    if (FrameHeaderChecksum(entry_count, payload_len) != header_checksum) {
      return Corrupt("DB file frame header checksum mismatch");
    }
    if (payload_len > r.remaining()) break;
    if (auto s = ParseFrame(r, entry_count, payload_len, checksum, seen, data);
        !s.ok()) {
      return s;
    }
    whole = file_bytes - r.remaining();
  }
  *v4_bytes = whole;
  return Status::Ok();
}

/// A v1-v3 body after the version: the epoch (v2 and v3), then the
/// records, then end of input.
Status ParseUpToV3(BinaryReader& r, std::uint32_t version,
                   CheckpointData& data) {
  data.epoch = version >= kVersionV2 ? r.ReadU64() : 0;
  Status s = version == kVersionV3 ? ParseV3Body(r, data)
                                   : ParseLegacyBody(r, data);
  if (!s.ok()) return s;
  if (!r.AtEnd()) return Corrupt("trailing bytes after server DB body");
  return Status::Ok();
}

}  // namespace

Status DecodeRecords(std::vector<StoredSignature> entries,
                     std::vector<CheckpointRecord>* out) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(entries.size());
  std::vector<CheckpointRecord> records;
  records.reserve(entries.size());
  for (StoredSignature& entry : entries) {
    records.push_back(CheckpointRecord{std::move(entry), {}});
    if (auto s = FinishRecord(records.back(), seen); !s.ok()) return s;
  }
  *out = std::move(records);
  return Status::Ok();
}

std::vector<std::uint8_t> EncodeDbHeader(std::uint64_t epoch) {
  BinaryWriter w;
  w.WriteU32(kDbMagic);
  w.WriteU32(kVersionV4);
  w.WriteU64(epoch);
  w.WriteU64(Fnv1aU64(epoch));
  return w.take();
}

std::vector<std::uint8_t> EncodeDbFrame(const SignatureLog& log,
                                        std::uint64_t from,
                                        std::uint64_t upto,
                                        std::uint64_t* superseded) {
  BinaryWriter payload;
  *superseded += EncodeRecords(log, from, upto, payload);
  const auto count = static_cast<std::uint32_t>(upto - from);
  const auto len = static_cast<std::uint32_t>(payload.size());
  BinaryWriter w;
  w.WriteU32(count);
  w.WriteU32(len);
  w.WriteU64(Fnv1a(std::span<const std::uint8_t>(payload.data())));
  w.WriteU64(FrameHeaderChecksum(count, len));
  w.WriteRaw(std::span<const std::uint8_t>(payload.data()));
  return w.take();
}

Status ParseDbFile(std::span<const std::uint8_t> bytes, DbFileContents* out) {
  BinaryReader r(bytes);
  const std::uint32_t magic = r.ReadU32();
  const std::uint32_t version = r.ReadU32();
  if (!r.ok() || magic != kDbMagic || version < kVersionV1 ||
      version > kVersionV4) {
    return Corrupt("bad server DB header");
  }
  DbFileContents file;
  if (version == kVersionV4) {
    file.snapshot.epoch = r.ReadU64();
    std::uint64_t whole = 0;
    if (auto s = ParseV4Body(r, bytes.size(), file.snapshot, &whole);
        !s.ok()) {
      return s;
    }
    file.v4_bytes = whole;
  } else if (auto s = ParseUpToV3(r, version, file.snapshot); !s.ok()) {
    return s;
  }
  *out = std::move(file);
  return Status::Ok();
}

}  // namespace communix::store
