// Storage layer of the Communix server.
//
// The server (communix/server.*) is the validation *pipeline*: it decodes
// sender tokens, checks signature well-formedness and maps outcomes to
// wire statuses. Everything stateful — the signature database, the
// per-user rate-limit/adjacency state, the dedup set and persistence —
// lives in this store.
//
// The store is a SignatureLog (lock-free committed reads) plus
// UserStateShards (per-user lock striping) plus a DedupIndex. Concurrent
// ADDs from different users never contend, GET scans never block ADDs,
// and a GET reply is byte runs pointing into the log's wire-format
// arena: no GET copies an entry, whatever its cursor. The §III-C
// decision procedure lives in Add alone; the store tests check it
// against a reference model written from the paper's rules
// (tests/communix/reference_store.hpp).
//
// Clients' incremental GET(k) cursors stay valid across restarts: the
// database saves in index order. Like the log, the DB file (format v4,
// checkpoint.hpp) only grows at its end: a save appends frames for the
// entries committed since the last save, straight from the arena, and
// rewrites the whole file only when it no longer holds a prefix of the
// live log. v3 (framed, with the entry count in its header), v2 (epoch
// in the header) and v1 (the seed server's exact layout, adopting a
// fresh epoch on load) files still load.
//
// Three things replace the whole log — a load, Compact and a replicated
// reset frame — and all three go through one routine (ReplaceLocked).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "communix/ids.hpp"
#include "communix/store/checkpoint.hpp"
#include "communix/store/dedup_index.hpp"
#include "communix/store/signature_log.hpp"
#include "communix/store/user_state_shards.hpp"
#include "dimmunix/signature.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace communix::store {

/// Union of the top-frame keys of every stack in `sig` (adjacency input).
TopFrameKeys TopFrameSet(const dimmunix::Signature& sig);

/// "Some (but not all) top frames in common" (§III-C2): nonempty
/// intersection and the sets are not identical.
bool Adjacent(const TopFrameKeys& a, const TopFrameKeys& b);

/// Outcome of the store-side ADD decision procedure. The server maps
/// these to wire statuses; bad-token and malformed rejections happen
/// before the store is consulted.
enum class AddOutcome {
  kAccepted,
  kDuplicate,
  kRateLimited,
  kAdjacent,
  /// The sender's *community* exhausted its daily budget (per-community
  /// quota — see Limits::per_tenant_daily_limit). Distinct from
  /// kRateLimited so a tenant-wide flood is visible as such in stats.
  kTenantRateLimited,
};

/// Knobs of the §III-C checks the store enforces.
struct Limits {
  std::size_t per_user_daily_limit = 10;
  bool adjacency_check_enabled = true;
  /// Daily budget of *processed* signatures per community (the tenant
  /// the sender's user id encodes — ids.hpp CommunityOf). Checked after
  /// the per-user quota, so a tenant-limited ADD has already consumed
  /// the sender's personal budget (a sybil flood cannot probe the tenant
  /// limit for free). 0 disables the check (single-tenant deployments).
  std::size_t per_tenant_daily_limit = 0;
};

struct StoreOptions {
  /// Log epoch (replication lineage id); 0 generates a fresh
  /// process-unique nonzero value. Tests pin it for determinism.
  std::uint64_t epoch = 0;
};

/// A fresh, process-unique, nonzero log epoch.
std::uint64_t GenerateEpoch();

class SignatureStore {
 public:
  explicit SignatureStore(const StoreOptions& options);

  SignatureStore(const SignatureStore&) = delete;
  SignatureStore& operator=(const SignatureStore&) = delete;

  static std::unique_ptr<SignatureStore> Create(const StoreOptions& options);

  /// Runs the stateful part of ADD validation for an already
  /// authenticated, well-formed signature: day-quota, adjacency, dedup;
  /// on acceptance commits the signature at the next index. `day` is the
  /// caller's clock day, `tops` = TopFrameSet(sig), `content_id` =
  /// sig.ContentId(). The signature is serialized only on acceptance —
  /// rejection paths never pay for ToBytes().
  AddOutcome Add(UserId sender, std::int64_t day, const TopFrameKeys& tops,
                 std::uint64_t content_id, const dimmunix::Signature& sig,
                 TimePoint added_at, const Limits& limits);

  /// Visits serialized signatures with index in [from, min(upto, size()))
  /// in index order, without blocking writers.
  void VisitRange(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t index,
                               std::span<const std::uint8_t> sig_bytes)>& fn)
      const;

  std::uint64_t size() const;

  // ---- replication (cluster tier) ---------------------------------------

  /// Incremental committed-entry feed: visits entries with index in
  /// [from, min(upto, size())) in index order, with the full stored
  /// metadata (sender, added_at, bytes) replication must ship for the
  /// follower's log to be byte-identical. Same non-blocking guarantees
  /// as VisitRange.
  void VisitEntries(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t index, const EntryView& entry)>&
          fn) const;

  /// Log lineage id. Two stores with equal epochs hold byte-identical
  /// prefixes of the same log; the epoch changes only when the log's
  /// identity does (a replicated reset frame, Compact, loading a file of
  /// another lineage). Lock-free read.
  std::uint64_t epoch() const;

  /// One snapshot of the published log. Its epoch, length and entries
  /// always belong together: a reader that pairs them (a kReplPull
  /// reply, a shipped batch, an ingest reply, a save) reads them from one
  /// snapshot, never through separate store calls that a concurrent
  /// lineage change can split. Lock-free.
  std::shared_ptr<const SignatureLog> log() const { return Log(); }

  /// One kReplBatch frame as a follower ingests it: entries
  /// [from_index, from_index + entries.size()) of the `epoch` log, as
  /// they came off the wire (content ids are recomputed from the bytes).
  /// A `reset` frame starts at index 0 and replaces the whole store with
  /// its entries under `epoch`.
  struct ReplicatedFrame {
    std::uint64_t epoch = 0;
    bool reset = false;
    std::uint64_t from_index = 0;
    std::vector<StoredSignature> entries;
  };
  /// What a frame did: the log it left published (the reply's epoch and
  /// committed length, both read from that one log) and how many of its
  /// entries were appended or skipped as already applied.
  struct IngestOutcome {
    std::uint64_t epoch = 0;
    std::uint64_t size = 0;
    std::uint64_t applied = 0;
    std::uint64_t skipped = 0;
  };

  /// Follower ingest of one frame. Every entry is decoded and validated
  /// first (DecodeRecords); then one hold of the ingest lock covers the
  /// reset or the epoch check, the gap and skip arithmetic, every append
  /// and the outcome, so two shippers' frames can never interleave in
  /// one log. Entries below the committed length were already applied
  /// (a retransmission after a lost reply) and are skipped. The
  /// dedup/adjacency state is rebuilt exactly as LoadFromFile does, so
  /// the follower enforces §III-C if it is ever promoted. Errors leave
  /// the store untouched: kFailedPrecondition for another lineage or a
  /// gap, kDataLoss for bytes that fail to parse or repeat a content id
  /// (lineage corruption). Safe against concurrent reads; concurrent Add
  /// is excluded (followers refuse ADDs).
  Result<IngestOutcome> IngestReplicated(ReplicatedFrame frame);

  /// Persistence in DB format v4 (checkpoint.hpp). When `path` still
  /// holds exactly what this store last wrote or loaded there (the same
  /// file and length, this log's header, no superseded mark since), the
  /// save appends frames for the entries committed since, and a save
  /// with nothing new only checks the file's length. In every other case
  /// (the first save, another path, a lineage change, a v1-v3 file just
  /// loaded, a v4 file loaded without its cut-short tail, a new mark)
  /// it streams the whole log into `path`.tmp and renames it over
  /// `path`. Encodes straight from the log and never syncs; safe
  /// against concurrent Add, reads and lineage changes, and takes none
  /// of their locks. Saves are serialized.
  Status SaveToFile(const std::string& path);
  /// Loads a v1-v4 file, applying the v4 recovery rule. On failure the
  /// store is untouched. Restart-time only (like the seed's whole-db
  /// swap): not safe against concurrent Add/Visit.
  Status LoadFromFile(const std::string& path);

  /// What the DB file held after the last completed save or load, and
  /// what saving has cost (the store.persist.* rows of kStats).
  struct PersistStats {
    std::uint64_t entries = 0;
    std::uint64_t superseded = 0;
    std::uint64_t bytes_written = 0;
    /// Saves that wrote the whole file.
    std::uint64_t rewrites = 0;
  };
  PersistStats persist_stats() const;

  // ---- read performance tier --------------------------------------------

  /// The GET(from) reply body: the count of entries [from, size()) and
  /// their wire encodings (u32 length + bytes each) as byte runs into the
  /// log's arena, one per block. The runs pin the log they were read
  /// from, so a reply stays self-consistent and valid across a
  /// concurrent replicated reset, Compact or load; no entry
  /// is copied and writers are never blocked. A cursor at or past the
  /// committed length gets count 0 and no runs.
  SuffixReply ReadSince(std::uint64_t from) const;

  /// Marks committed entry `index` superseded (ReplaceSignature /
  /// FP-disable lineage). Idempotent: true on the first mark, false if
  /// already marked or out of range. The entry keeps streaming in GETs
  /// until Compact — marks never perturb live cursors.
  bool MarkSuperseded(std::uint64_t index);
  std::uint64_t superseded_count() const;

  /// Drops every superseded entry, renumbering the survivors into a
  /// fresh log with a fresh epoch — compaction is a lineage change, and
  /// deliberately so: client GET cursors are (from + count) positions in
  /// the entry stream, so dropping entries in place would silently
  /// corrupt them, while an epoch bump routes both followers (via the
  /// anti-entropy reset handshake) and clients (via their epoch guard)
  /// through the existing lineage-change machinery. Equivalent to a
  /// fresh store ingesting the survivors as one replicated reset frame
  /// (the per-user adjacency state is rebuilt from survivors only),
  /// which is the invariant the store tests pin. Safe against concurrent
  /// reads; concurrent Add excluded, like ingest. Returns the number of
  /// entries dropped.
  std::uint64_t Compact();

 private:
  /// Lock stripes of the per-user, per-community and dedup state.
  static constexpr std::size_t kStripes = 16;

  std::shared_ptr<SignatureLog> Log() const {
    return log_.load(std::memory_order_acquire);
  }

  /// Replaces the whole store: clears the per-user, per-community and
  /// dedup state, rebuilds it from `records` (already validated) and
  /// publishes a fresh log of lineage `epoch` holding them. In-flight
  /// readers finish against the retired log. Caller holds ingest_mu_.
  void ReplaceLocked(std::uint64_t epoch,
                     std::vector<CheckpointRecord> records);

  /// What a DB file holds: a prefix of `log`, as of the last completed
  /// save or v4 load. `device`, `inode` and `bytes` identify the file
  /// and its length; a rename over `path` or a write by anyone else
  /// changes one of them.
  struct PersistedFile {
    std::string path;
    std::weak_ptr<const SignatureLog> log;
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::uint64_t bytes = 0;
    std::uint64_t entries = 0;
    std::uint64_t superseded = 0;
  };
  /// Appends `log` entries [persisted_->entries, n) to the persisted
  /// file. nullopt when the file is no longer what this store wrote
  /// there, so the caller rewrites it. Caller holds save_mu_.
  std::optional<Status> AppendLocked(const SignatureLog& log,
                                     std::uint64_t n);
  /// Writes `log` entries [0, n) to `path`.tmp and renames it over
  /// `path`. Caller holds save_mu_.
  Status RewriteLocked(const std::string& path,
                       const std::shared_ptr<const SignatureLog>& log,
                       std::uint64_t n);
  /// Sets the PersistStats gauges: what the file holds now.
  void ReportPersisted(std::uint64_t entries, std::uint64_t superseded);

  UserStateShards users_{kStripes};
  /// Per-community day quota (only the day/processed_today fields are
  /// used), striped independently of users_. Cleared wherever users_ is.
  UserStateShards tenants_{kStripes};
  DedupIndex dedup_{kStripes};
  /// The log is published through an atomic shared_ptr (the same RCU
  /// pattern as the dimmunix avoidance index): readers snapshot the
  /// pointer and walk that log lock-free, so replacing the whole
  /// database installs a fresh log object and lets in-flight readers
  /// finish against the retired one. A GET reply holds the log it was
  /// read from until its last byte run is flushed.
  std::atomic<std::shared_ptr<SignatureLog>> log_;
  /// Serializes ingest and log swaps (IngestReplicated, LoadFromFile,
  /// Compact).
  std::mutex ingest_mu_;
  /// Serializes saves and loads; file I/O happens under this lock only.
  std::mutex save_mu_;
  std::optional<PersistedFile> persisted_;  // guarded by save_mu_
  /// PersistStats, readable without save_mu_.
  std::atomic<std::uint64_t> persist_entries_{0};
  std::atomic<std::uint64_t> persist_superseded_{0};
  std::atomic<std::uint64_t> persist_bytes_written_{0};
  std::atomic<std::uint64_t> persist_rewrites_{0};
};

}  // namespace communix::store
