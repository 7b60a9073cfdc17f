// The DB file: one record encoding, the v4 framing SaveToFile writes,
// and the older layouts that still load.
//
// The v4 header pins only the lineage, and frames follow until end of
// file, so a save appends the entries committed since the last one
// instead of rewriting the file. Saves encode straight from a live
// SignatureLog's arena: no save copies the database first. v1 (the seed
// layout), v2 (+epoch) and v3 (framed, entry count in the header) files
// still load; nothing writes them any more.
//
// The record validation a load applies (every signature's bytes parse,
// no content id repeats) also vets replicated entries before a follower
// ingests them (DecodeRecords).
//
// v3 layout (little-endian):
//
//   header:  u32 magic "CMSB" | u32 version=3 | u64 epoch
//            u64 total_count  | u32 frame_count
//            u64 fnv1a(epoch | total_count | frame_count)
//   frame:   u32 entry_count | u32 payload_len | u64 fnv1a(payload)
//            payload = entry_count records
//   record:  u8 flags (bit0: superseded) | u64 sender | i64 added_at
//            u32 sig_len + sig bytes
//
// v4 layout:
//
//   header:  u32 magic "CMSB" | u32 version=4 | u64 epoch | u64 fnv1a(epoch)
//   frame:   u32 entry_count | u32 payload_len | u64 fnv1a(payload)
//            u64 fnv1a(entry_count | payload_len), then the payload
//   ...      frames until end of file
//
// The framing is what makes a damaged file *detectably* damaged: the v3
// header pins the total entry count (truncation at a frame boundary
// leaves a shortfall), payload lengths bound every frame, the per-frame
// FNV-1a checksum catches byte corruption, and the header checksums
// cover the metadata the payload checksums don't (a flipped epoch byte
// must not parse as a valid file of another lineage).
//
// v4 recovery rule. A save appends frames with plain writes and never
// syncs, so a kill can leave the last frame cut short: its header
// incomplete, or its header intact (checksum and all) with the payload
// running past end of file. A load drops such a final frame and keeps
// the whole frames before it, and the next save rewrites the file rather
// than append after the cut. Every other defect — a header or frame
// checksum mismatch (a damaged length included: the frame header's own
// checksum keeps it from passing for a cut-short tail), a bad record, a
// repeated content id — is kDataLoss. The parser validates everything,
// including that every signature's bytes round-trip, before returning,
// so a store can vet a file in full before it is replaced.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "communix/store/signature_log.hpp"
#include "communix/store/user_state_shards.hpp"
#include "util/status.hpp"

namespace communix::store {

/// One validated record: the stored signature plus the adjacency
/// top-set rebuilt from its (verified) bytes.
struct CheckpointRecord {
  StoredSignature entry;
  TopFrameKeys tops;
};

/// A fully validated, installable snapshot of a store at (epoch, size).
struct CheckpointData {
  /// Log lineage the snapshot belongs to; 0 for a v1 file (the seed
  /// format recorded none — the caller adopts a fresh epoch).
  std::uint64_t epoch = 0;
  std::vector<CheckpointRecord> records;
};

/// Entries per v3 or v4 frame (also the truncation-test granularity).
constexpr std::size_t kCheckpointFrameEntries = 512;

/// Validates entries from outside the store (a replicated frame) the
/// way a load validates a file's records: every signature's bytes must
/// parse and no two entries may share a content id. Fills in each
/// record's content id and top-set. kDataLoss on the first defect; the
/// out-param is untouched on failure.
Status DecodeRecords(std::vector<StoredSignature> entries,
                     std::vector<CheckpointRecord>* out);

// ---- the DB file (v4) ----------------------------------------------------

/// The v4 file header of lineage `epoch`.
std::vector<std::uint8_t> EncodeDbHeader(std::uint64_t epoch);

/// One v4 frame holding `log` entries [from, upto), at most
/// kCheckpointFrameEntries of them, all committed. Adds the number of
/// them marked superseded to `*superseded`.
std::vector<std::uint8_t> EncodeDbFrame(const SignatureLog& log,
                                        std::uint64_t from,
                                        std::uint64_t upto,
                                        std::uint64_t* superseded);

/// A parsed DB file.
struct DbFileContents {
  CheckpointData snapshot;
  /// For a v4 file, the length of its whole frames: the file length,
  /// less a final frame cut short. Unset for a v1-v3 file.
  std::optional<std::uint64_t> v4_bytes;
};

/// Parses and fully validates a DB file of any version, v1 to v4,
/// applying the v4 recovery rule above. kDataLoss on every other
/// defect; the out-param is untouched on failure.
Status ParseDbFile(std::span<const std::uint8_t> bytes, DbFileContents* out);

}  // namespace communix::store
