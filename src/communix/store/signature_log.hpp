// Append-only segmented signature log with a wire-format arena.
//
// The hot path of the Communix server is GET(k) iterating the whole
// database while ADDs keep appending (Figure 2). The seed kept both
// behind one shared_mutex, so every scan blocked every append. Here the
// log is split into fixed-size segments of slots whose pointers are
// published through atomics, and the committed length is an atomic
// published with release ordering after the slot is fully written.
// Readers load the length with acquire ordering and then walk committed
// slots without taking any lock; writers serialize only among
// themselves on a short append mutex.
//
// Each entry's bytes live once, in their GET wire encoding (u32 length +
// signature bytes), in an append-only arena of fixed-size blocks; a slot
// holds the entry's metadata plus where its encoding sits. Consecutive
// entries are contiguous within a block and never straddle two blocks,
// so the GET reply body for any cursor is one byte run per block it
// touches (ReadSince): no GET copies an entry. Block pointers, and a
// block's final length once the writer moves on to the next block, are
// stored (release) before the published_ release that exposes the
// entries in them — the same protocol the segment pointers use.
//
// Indexes are assigned in append order and never change, so clients'
// incremental GET(k) cursors stay valid (same guarantee the seed server
// gave).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "communix/ids.hpp"
#include "util/byte_run.hpp"
#include "util/clock.hpp"

namespace communix::store {

/// One accepted signature as data at rest: DB file records, replication
/// ingest and Reset input. The live log keeps its bytes in
/// the arena and hands out EntryViews instead.
struct StoredSignature {
  std::vector<std::uint8_t> bytes;
  std::uint64_t content_id = 0;
  UserId sender = 0;
  TimePoint added_at = 0;
  /// Superseded by ReplaceSignature / FP-disable; compaction drops these.
  /// Meaningful only on at-rest copies: the live log keeps its marks in
  /// atomic side-flags (MarkSuperseded/IsSuperseded), so lock-free scans
  /// and concurrent marks never race on entry memory.
  bool superseded = false;
};

/// A committed entry as the log hands it out: borrowed, valid for the
/// lifetime of the log it came from.
struct EntryView {
  std::span<const std::uint8_t> bytes;
  std::uint64_t content_id = 0;
  UserId sender = 0;
  TimePoint added_at = 0;
};

/// A view of `entry`, valid while `entry` lives.
inline EntryView ViewOf(const StoredSignature& entry) {
  return EntryView{entry.bytes, entry.content_id, entry.sender,
                   entry.added_at};
}

/// An owned copy of `entry` (superseded = false).
inline StoredSignature ToStored(const EntryView& entry) {
  return StoredSignature{
      std::vector<std::uint8_t>(entry.bytes.begin(), entry.bytes.end()),
      entry.content_id, entry.sender, entry.added_at};
}

/// A GET reply body: `count` entries in wire encoding, as byte runs.
struct SuffixReply {
  std::uint32_t count = 0;
  std::vector<ByteRun> runs;
};

class SignatureLog {
 public:
  static constexpr std::size_t kSegmentBits = 10;
  static constexpr std::size_t kSegmentSize = std::size_t{1} << kSegmentBits;
  /// 64Ki segments x 1Ki slots = 67M signatures, far beyond any workload
  /// in this repo; Append aborts past it rather than corrupting.
  static constexpr std::size_t kMaxSegments = std::size_t{1} << 16;
  static constexpr std::uint64_t kCapacity =
      static_cast<std::uint64_t>(kSegmentSize) * kMaxSegments;
  /// Arena block size. A GET reply costs one byte run per block it
  /// touches; an entry whose encoding is larger gets a block of its own.
  /// Block memory is left uninitialized, so a block's pages are touched
  /// only as entries land in it.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
  /// 16Ki blocks = 16 GiB of signatures; Append aborts past it.
  static constexpr std::size_t kMaxBlocks = std::size_t{1} << 14;

  /// An empty log of lineage `epoch`.
  explicit SignatureLog(std::uint64_t epoch);
  ~SignatureLog();

  SignatureLog(const SignatureLog&) = delete;
  SignatureLog& operator=(const SignatureLog&) = delete;

  /// Appends one committed entry, copying its bytes into the arena;
  /// returns its index. Thread-safe against concurrent Append and
  /// against lock-free readers.
  std::uint64_t Append(const EntryView& entry);

  /// Log lineage id. It names this log object: every lineage change
  /// (a replicated reset, compaction, a load) publishes a new log, so
  /// a reader holding one log snapshot reads an epoch, a length and
  /// entries that always belong together.
  std::uint64_t epoch() const { return epoch_; }

  /// Committed length. Entries with index < size() are fully visible.
  std::uint64_t size() const {
    return published_.load(std::memory_order_acquire);
  }

  /// A committed entry (`index < size()`); valid for the lifetime of the
  /// log (slots and blocks are never moved or freed before
  /// destruction/Reset).
  EntryView At(std::uint64_t index) const;

  /// Visits committed entries with index in [from, min(upto, size()))
  /// in index order, without taking the writer lock. `upto` lets callers
  /// pin an exact snapshot length. Segment and block pointers are chased
  /// once per segment and once per block, not once per entry.
  void Visit(std::uint64_t from, std::uint64_t upto,
             const std::function<void(std::uint64_t index,
                                      const EntryView& entry)>& fn) const;

  /// Visit for callers that need only each entry's bytes (the GET(k)
  /// iteration of VisitRange). Handing the span straight to `fn` keeps
  /// a whole-log scan at a few ns per entry; relaying it through an
  /// EntryView visitor cost about three times that.
  void VisitBytes(std::uint64_t from, std::uint64_t upto,
                  const std::function<void(std::uint64_t index,
                                           std::span<const std::uint8_t>
                                               bytes)>& fn) const;

  /// The GET reply body for entries [from, size()): the count, and the
  /// entries' wire encodings as one run per arena block, each pinned by
  /// `pin` (the owner keeping this log alive). The length is loaded
  /// once, so count and runs always agree. No entry is copied.
  SuffixReply ReadSince(std::uint64_t from,
                        const std::shared_ptr<const void>& pin) const;

  /// Marks a committed entry superseded (ReplaceSignature / FP-disable);
  /// compaction later drops it. The mark lives in an atomic side-flag
  /// next to the slot — entry bytes are never touched, so lock-free
  /// scans of the entry race with nothing. Returns true on the first
  /// mark, false if already marked (idempotent). `index < size()`.
  bool MarkSuperseded(std::uint64_t index);

  /// Whether MarkSuperseded hit this committed entry (`index < size()`).
  bool IsSuperseded(std::uint64_t index) const;

  /// Marked-entry count (== number of MarkSuperseded firsts since the
  /// last Reset, plus entries Reset ingested with `superseded` set).
  std::uint64_t superseded_count() const {
    return superseded_.load(std::memory_order_acquire);
  }

  /// Replaces the whole log (LoadFromFile path), seeding side-flags from
  /// each entry's `superseded` field. NOT safe against concurrent
  /// readers or writers; restart-time only, like the seed's whole-db
  /// swap under its exclusive lock. (Live swaps build a private log and
  /// publish it through the store's atomic<shared_ptr> instead.)
  void Reset(std::vector<StoredSignature> entries);

 private:
  struct Slot;
  struct Segment;
  struct Block;

  const Slot& SlotAt(std::uint64_t index) const;
  /// The loop behind Visit and VisitBytes: fn(index, slot, block bytes)
  /// for committed entries in [from, min(upto, size())).
  template <typename Fn>
  void ForEachSlot(std::uint64_t from, std::uint64_t upto, Fn&& fn) const;
  /// Slot for `index`, allocating the segment if needed. Caller holds
  /// append_mu_.
  Slot* SlotForAppend(std::uint64_t index);
  /// Writes `entry` into `slot`, copying its wire encoding into the
  /// arena. Caller holds append_mu_.
  void Fill(Slot* slot, const EntryView& entry);
  /// Frees every segment and block. Caller holds append_mu_ (or is the
  /// destructor).
  void FreeAll();

  std::mutex append_mu_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> superseded_{0};
  /// Readers reach segments and blocks only through these atomics; the
  /// pointer stores happen-before the matching published_ release.
  std::unique_ptr<std::atomic<Segment*>[]> segments_;
  std::unique_ptr<std::atomic<Block*>[]> blocks_;
  /// Writer-side arena cursor (guarded by append_mu_): blocks in use and
  /// bytes used in the last one.
  std::size_t blocks_used_ = 0;
  std::size_t tail_used_ = 0;
  /// Last, so the fields above keep their cache lines: which of them
  /// readers and appenders share moved fig2's concurrent ADD + GET(0)
  /// sweep by about 3x when the epoch came first.
  const std::uint64_t epoch_;
};

}  // namespace communix::store
