// Adaptive, incrementally-maintained avoidance index.
//
// The avoidance decision in DimmunixRuntime::Acquire needs one question
// answered on *every* lock acquisition: "could this call stack's top
// frame complete an instantiation of any enabled history signature?"
// For the overwhelming majority of acquisitions the answer is no — the
// paper's whole deployability argument rests on those acquisitions
// staying near-native speed.
//
// AvoidanceIndex is the read-optimized projection of the History the hot
// path consults: per top-frame key, the (signature, position) candidates
// whose outer stack ends at that lock statement. A snapshot is immutable
// after construction and published via
// std::atomic<std::shared_ptr<const AvoidanceIndex>> (RCU-style), so
// readers never block. Two additions over the original PR-2 design:
//
//  * Republish in O(change). A snapshot keeps its entries (by history
//    record index), its key slots (by top-frame key) and its per-bucket
//    key counts in PersistentMaps, whose nodes successive snapshots
//    share. Rebuild(prev, history, changed) re-indexes only the records
//    the history journaled as changed (History::TakeChangedRecords):
//    their entries are copied in or dropped, and only the slots of the
//    keys those entries occupy are rebuilt — every other entry and slot
//    is the previous snapshot's, pointer for pointer. Candidates name
//    their entry by pointer (a stable handle), not by an ordinal a
//    rebuild would renumber, and content ids come from the history's
//    records, so nothing re-encodes a signature. A build from scratch
//    remains for the runtime's two whole-index events (the occupancy
//    table widened; a history assigned whole) and as the oracle: a
//    property test asserts every step of a random Rebuild chain equals
//    Build.
//
//  * Adaptive per-key state. Each key slot carries the deduplicated
//    occupancy buckets of its *peer* positions (the top-frame keys of
//    every other entry of every candidate signature) plus mutable skip/
//    scan telemetry. The runtime's adaptive gate skips the instantiation
//    scan when all peer buckets are unoccupied — a candidate signature
//    can only instantiate if some other thread currently holds or is
//    blocked at a lock whose stack matches one of the other positions,
//    and such a stack's top frame hashes into one of those buckets, so
//    an all-zero read proves the scan would return empty. Telemetry is
//    shared with the previous snapshot while a key's slot is untouched,
//    carried over when a rebuilt slot's candidate content is unchanged
//    (fingerprint match) and reset when it changes — the "re-arm
//    eagerly" rule for index mutations; occupant-set changes need no
//    re-arm at all because the gate reads live bucket counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dimmunix/history.hpp"
#include "dimmunix/persistent_map.hpp"
#include "dimmunix/signature.hpp"

namespace communix::dimmunix {

/// Striped occupancy counters, keyed by top-frame key. Every published
/// occupancy (a held monitor's acquisition stack, a fast-path pending
/// slot, a slow-path block announcement) increments the bucket of its
/// stack's top-frame key *before* becoming visible to instantiation
/// scans and decrements it only *after* being retracted, so a zero read
/// proves no matching occupant is visible (hash collisions only cause
/// extra scans, never missed ones). Counter ops are seq_cst: if the
/// adaptive gate's zero-read precedes an occupant's increment in the
/// total order, the skipped acquisition linearizes before that
/// occupant's — exactly the serialization the fast path's pending-slot
/// protocol already grants, so the global-lock reference admits it too.
///
/// The table width is configurable (power of two): collisions between a
/// signature's peer keys and unrelated hot keys cost skipped skips, so a
/// busy deployment sizes the table from its candidate-key count
/// (RecommendedBuckets; the runtime's auto mode applies it at republish,
/// while resizing is still provably safe). The width is fixed
/// once occupancies exist — entries cache their bucket index, so a live
/// resize would orphan them.
class OccupancyTable {
 public:
  static constexpr std::size_t kDefaultBuckets = 1024;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;

  /// Rounds `buckets` to the nearest power of two in [kMin, kMax].
  static std::size_t ClampBuckets(std::size_t buckets);

  /// Width for a deployment whose index holds `candidate_keys` distinct
  /// top-frame keys: ~8 buckets per key (collision probability per hot
  /// key ~n/8n), floored at the default width.
  static std::size_t RecommendedBuckets(std::size_t candidate_keys);

  explicit OccupancyTable(std::size_t buckets = kDefaultBuckets);

  /// Bucket of a top-frame key (already FNV-mixed by Frame) in a table
  /// of `buckets` slots (power of two).
  static std::uint32_t BucketOf(std::uint64_t top_key, std::size_t buckets) {
    return static_cast<std::uint32_t>((top_key ^ (top_key >> 32)) &
                                      (buckets - 1));
  }
  std::uint32_t Bucket(std::uint64_t top_key) const {
    return BucketOf(top_key, bucket_count_);
  }
  std::size_t bucket_count() const { return bucket_count_; }

  /// Replaces the counter array with a wider one. NOT thread-safe: the
  /// caller must guarantee no occupancy is live and no thread can
  /// publish one concurrently (the runtime resizes only while no thread
  /// is attached, which implies both).
  void Resize(std::size_t buckets);

  void Enter(std::uint32_t bucket) {
    counts_[bucket].fetch_add(1, std::memory_order_seq_cst);
  }
  void Leave(std::uint32_t bucket) {
    counts_[bucket].fetch_sub(1, std::memory_order_seq_cst);
  }

  bool AnyOccupied(const std::vector<std::uint32_t>& buckets) const {
    for (const std::uint32_t b : buckets) {
      if (counts_[b].load(std::memory_order_seq_cst) != 0) return true;
    }
    return false;
  }

  std::uint32_t Count(std::uint32_t bucket) const {  // introspection/tests
    return counts_[bucket].load(std::memory_order_seq_cst);
  }

 private:
  std::size_t bucket_count_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> counts_;
};

class AvoidanceIndex {
 public:
  /// Immutable copy of one enabled history record, shared by every
  /// snapshot that indexes it (the index must not dangle when
  /// History::Replace reallocates records, and a republish must not
  /// re-copy it).
  struct Entry {
    Signature sig;
    std::uint64_t content_id = 0;
    /// History record index: candidates are ordered by it, as a build
    /// from scratch visits them.
    std::uint32_t record = 0;
  };

  /// One (signature, outer-stack position) pair whose outer top frame is
  /// the probed key. `entry` is a stable handle: it points into the
  /// entry table of every snapshot whose slots name it.
  struct Candidate {
    const Entry* entry;
    std::uint32_t position;
  };

  /// Mutable adaptive telemetry for one key. Guarded by the runtime
  /// mutex (the gate runs only on the slow path); shared across
  /// republishes while the key's candidate content is unchanged.
  struct KeyStats {
    std::uint64_t scans = 0;           // instantiation scans executed
    std::uint64_t instantiations = 0;  // scans that found an occupant set
    /// Gate evaluations that proved the scan empty (no occupied peer
    /// bucket). Drives the 1-in-N verification sampling; all but the
    /// sampled evaluations skipped the scan outright.
    std::uint64_t gate_hits = 0;
    std::uint64_t verify_scans = 0;    // sampled gate-verification scans
  };

  struct KeySlot {
    /// Ordered by (entry->record, position).
    std::vector<Candidate> candidates;
    /// Deduplicated occupancy buckets of every other position of every
    /// candidate signature — the adaptive gate's read set.
    std::vector<std::uint32_t> peer_buckets;
    /// Hash of the candidate (content_id, position) sequence; a rebuilt
    /// slot with the old fingerprint keeps the old stats.
    std::uint64_t fingerprint = 0;
    std::shared_ptr<KeyStats> stats;
  };

  /// Builds the index of `history`'s *enabled* signatures from scratch,
  /// stamped with the given history version. `occupancy_buckets` is the
  /// width of the runtime's OccupancyTable — peer buckets are computed
  /// against it, so the two must agree. The reference every Rebuild
  /// chain must stay equal to, and the runtime's path when the table
  /// width changes or a history was assigned whole.
  static std::shared_ptr<const AvoidanceIndex> Build(
      const History& history, std::uint64_t version,
      std::size_t occupancy_buckets = OccupancyTable::kDefaultBuckets);

  /// Derives the next snapshot from `prev` by re-indexing only the
  /// history records in `changed` (History::TakeChangedRecords; repeats
  /// allowed), at `prev`'s table width. Every other entry and key slot
  /// is shared with `prev`, so the cost is O(changed signatures × their
  /// keys' candidates × log(keys)), independent of the history's size.
  /// Observationally identical to Build(history, version).
  static std::shared_ptr<const AvoidanceIndex> Rebuild(
      const AvoidanceIndex& prev, const History& history,
      std::span<const std::size_t> changed, std::uint64_t version);

  /// key_count() of Rebuild(prev, history, changed, ...), in O(change)
  /// and without building it: the runtime sizes its occupancy table from
  /// this before choosing between Rebuild and a Build at a wider width.
  static std::size_t KeyCountAfter(const AvoidanceIndex& prev,
                                   const History& history,
                                   std::span<const std::size_t> changed);
  /// key_count() of Build(history, ...), without building it.
  static std::size_t KeyCount(const History& history);

  /// Candidates whose outer top frame key is `top_key`; nullptr if none.
  /// This is the only call the acquisition fast path makes.
  const std::vector<Candidate>* CandidatesForTopFrame(
      std::uint64_t top_key) const {
    const KeySlot* slot = SlotForTopFrame(top_key);
    return slot == nullptr ? nullptr : &slot->candidates;
  }

  /// Full key slot (candidates + adaptive state); nullptr if none. The
  /// address is shared by every snapshot that did not re-index the key.
  const KeySlot* SlotForTopFrame(std::uint64_t top_key) const {
    return slots_.Find(top_key);
  }

  /// The entry indexed for history record `record`; nullptr if that
  /// record is disabled or absent.
  const Entry* EntryForRecord(std::size_t record) const {
    return entries_.Find(record);
  }
  /// Indexed (enabled) signatures.
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// History version this snapshot reflects.
  std::uint64_t version() const { return version_; }

  /// Entries taken over from the previous snapshot without a copy (a
  /// build from scratch reports 0).
  std::size_t entries_reused() const { return entries_reused_; }

  /// Distinct top-frame keys in the index (candidate-key count — the
  /// input to OccupancyTable::RecommendedBuckets).
  std::size_t key_count() const { return slots_.size(); }
  /// Distinct key pairs sharing an occupancy bucket at this build's
  /// table width — each costs spurious gate hits (lost skips) whenever
  /// the colliding key is occupied. Surfaced as a Stats gauge; a rising
  /// value is the signal to widen Options::occupancy_buckets. Kept up to
  /// date key by key, as slots come and go.
  std::size_t key_bucket_collisions() const { return key_bucket_collisions_; }

 private:
  AvoidanceIndex() = default;
  AvoidanceIndex(const AvoidanceIndex&) = default;

  /// Candidate list -> slot (peer buckets, fingerprint; `old`'s stats if
  /// the fingerprint is unchanged).
  KeySlot MakeSlot(std::vector<Candidate> candidates,
                   const KeySlot* old) const;
  /// Installs a slot under `key` (new or replacing), keeping the key
  /// count and the collision gauge current.
  void PutSlot(std::uint64_t key, KeySlot slot);
  void EraseSlot(std::uint64_t key);

  PersistentMap<Entry> entries_;           // by history record index
  PersistentMap<KeySlot> slots_;           // by outer top-frame key
  PersistentMap<std::uint32_t> keys_per_bucket_;  // occupied buckets only
  std::uint64_t version_ = 0;
  std::size_t occupancy_buckets_ = OccupancyTable::kDefaultBuckets;
  std::size_t entries_reused_ = 0;
  std::size_t key_bucket_collisions_ = 0;
};

}  // namespace communix::dimmunix
