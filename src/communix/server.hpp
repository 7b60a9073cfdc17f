// Communix server (§III-A, §III-B, §III-C2).
//
// Central signature database. Handles two requests:
//   ADD(sig)  — validate and store a signature,
//   GET(k)    — return all signatures with index >= k (incremental pull).
//
// Server-side validation, in order:
//   1. The encrypted sender id must decode (AES + checksum). Forged ids
//      are rejected outright.
//   2. Rate limit: at most `per_user_daily_limit` (default 10) signatures
//      are processed per user per day; the rest are ignored (§III-C1).
//      An optional per-community budget (`per_tenant_daily_limit`) also
//      caps a sybil flood of many ids inside one community (ids.hpp).
//   3. Adjacency: two distinct signatures from the same user must not
//      have *some but not all* top frames in common. Honest users don't
//      hit "adjacent" deadlocks; attackers need this to mass-manufacture
//      signatures, so adjacent ones are refused (§III-C2).
//
// The server itself is a thin, stateless validation pipeline; all state
// (database, per-user quota/adjacency, dedup, persistence) lives in a
// store::SignatureStore. The cluster tier (communix/cluster/) runs the
// same class in two roles over the same store: a primary, as above, and
// followers that refuse ADDs and instead ingest the primary's committed
// log entries via kReplBatch — so any replica serves GET(k) with
// byte-identical, cursor-stable results. Replay is the only way a
// follower catches up, however far behind, and each frame is one store
// call: validated in full, then applied under one lock hold. The store
// lets concurrent ADDs from different users proceed in parallel and
// serves GET scans without blocking writers.
//
// Thread-safety: fully thread-safe; Figure 2 drives Handle()/AddSignature
// from tens of thousands of logical sessions.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "communix/ids.hpp"
#include "communix/store/signature_store.hpp"
#include "dimmunix/signature.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/serde.hpp"

namespace communix {

/// Replication role of a server (cluster tier). A primary accepts ADDs
/// and assigns the global log order; a follower only ingests committed
/// entries shipped from the primary (net::MsgType::kReplBatch) and
/// serves reads. Both roles serve kReplPull (feed reads + anti-entropy
/// probes), so replicas can be chained.
enum class ServerRole { kPrimary, kFollower };

class CommunixServer final : public net::RequestHandler {
 public:
  struct Options {
    AesKey server_key = kDefaultServerKey;
    std::size_t per_user_daily_limit = 10;
    bool adjacency_check_enabled = true;  // ablation knob (§III-C2 math)
    ServerRole role = ServerRole::kPrimary;
    /// Upper bound on entries shipped per kReplPull reply (defensive:
    /// a reply frame stays bounded regardless of the requested limit).
    std::uint32_t repl_pull_max_entries = 4096;
    /// Per-community daily ADD budget (store::Limits — 0 disables).
    /// Contains a community-wide sybil flood: one community exhausting
    /// its budget cannot consume the server's capacity for the others.
    std::size_t per_tenant_daily_limit = 0;
    /// Registry every server counter/histogram lives in (obs tier). A
    /// deployment shares one registry across its co-located components
    /// (server, TCP tier, shipper, runtime) so one kStats snapshot
    /// covers the whole process; when null the server creates a private
    /// one.
    std::shared_ptr<obs::MetricsRegistry> metrics;
    /// Requests whose total stage time is >= this are kept in the
    /// slow-trace ring and logged (obs/trace.hpp). 0 disables slow-request
    /// tracing (the all-requests ring still fills).
    std::uint64_t slow_request_ns = 0;
  };

  explicit CommunixServer(Clock& clock) : CommunixServer(clock, Options{}) {}
  CommunixServer(Clock& clock, Options options);

  // ---- request-processing routines (Figure 2 invokes these directly) ----

  /// ADD(sig): validates and stores. kPermissionDenied for bad tokens and
  /// adjacency rejections, kResourceExhausted past the daily limit,
  /// kAlreadyExists for exact duplicates (idempotent).
  Status AddSignature(const UserToken& token, const dimmunix::Signature& sig);

  /// Batched ADD: validates the token once, then processes the
  /// signatures in order exactly as N AddSignature calls would
  /// (per-signature statuses, same stats). One request frame on the wire
  /// (net::MsgType::kAddBatch) instead of N round trips.
  std::vector<Status> AddBatch(const UserToken& token,
                               std::span<const dimmunix::Signature> sigs);

  /// GET(k) iteration: visits every stored signature with index >= `from`
  /// in index order, reading committed entries without blocking ADDs.
  /// The Figure-2 bench iterates with a counting visitor, matching the
  /// paper's "iterating through the entire database".
  void VisitSince(std::uint64_t from,
                  const std::function<void(std::uint64_t index,
                                           std::span<const std::uint8_t>
                                               sig_bytes)>& fn) const;

  /// Convenience: serialized signatures with index >= from.
  std::vector<std::vector<std::uint8_t>> GetSince(std::uint64_t from) const;

  std::uint64_t db_size() const;

  // ---- replication (cluster tier) ----

  ServerRole role() const { return options_.role; }
  /// Log lineage id (see store::SignatureStore::epoch).
  std::uint64_t epoch() const { return store_->epoch(); }
  /// One snapshot of the published log, whose epoch, length and entries
  /// belong together (see store::SignatureStore::log). A reader that
  /// pairs them — the log shipper — reads them from one snapshot.
  std::shared_ptr<const store::SignatureLog> log() const {
    return store_->log();
  }
  /// Committed-entry feed with full metadata — what the log shipper
  /// reads on the primary. Delegates to the store.
  void VisitEntries(std::uint64_t from, std::uint64_t upto,
                    const std::function<void(
                        std::uint64_t index,
                        const store::EntryView& entry)>& fn) const;

  /// Commit sequence: moves on every change to what a log shipper reads
  /// from this server — an accepted ADD, Compact, LoadFromFile, and
  /// replicated ingest (kReplBatch, so a follower can feed a chained
  /// shipper). Every change is visible to a reader that loaded
  /// the sequence after it moved.
  std::uint64_t commit_seq() const { return commit_seq_.load(); }

  /// Parks the caller until commit_seq() != `seen`, `deadline` passes,
  /// or `stop()` holds; `stop` is re-checked on InterruptCommitWaiters.
  /// A commit only wakes the waiters when one is parked, so a busy
  /// shipper costs the ADD path no lock and no syscall.
  void WaitForCommit(std::uint64_t seen,
                     std::chrono::steady_clock::time_point deadline,
                     const std::function<bool()>& stop);
  /// Wakes every WaitForCommit caller to re-check its stop predicate.
  void InterruptCommitWaiters();

  /// The clock entries are stamped with (StoredSignature::added_at).
  Clock& clock() const { return clock_; }

  /// Issues the encrypted id for a user (the out-of-band registration the
  /// paper assumes; exposed over the wire for tests and examples).
  UserToken IssueToken(UserId user) const { return authority_.Issue(user); }

  /// Persistence: the signature database plus per-user adjacency state
  /// survive server restarts (indexes are implicit in insertion order, so
  /// clients' incremental GET(k) cursors stay valid across restarts).
  /// Delegates to the store, whose saves append to the DB file (format
  /// v4) what committed since the last one; a save that wrote something
  /// reports its duration to store.persist.save_ns, and a save that
  /// failed counts in store.persist.failures.
  Status SaveToFile(const std::string& path);
  Status LoadFromFile(const std::string& path);

  /// Maintenance: marks entry `index` superseded (ReplaceSignature /
  /// FP-disable); Compact() later drops marked entries into a fresh
  /// lineage (new epoch — followers re-bootstrap via anti-entropy,
  /// client cursors re-anchor via their epoch guard). See
  /// store::SignatureStore::{MarkSuperseded, Compact}.
  bool MarkSuperseded(std::uint64_t index);
  std::uint64_t superseded_count() const;
  std::uint64_t Compact();

  /// Marks every entry whose content id is in `content_ids` superseded,
  /// in ONE pass over the committed log (entries store their content id,
  /// so no signature is parsed). This is the server side of the batched
  /// false-positive/generalization retirement flow (kMarkSuperseded):
  /// one store pass per agent sync, not one per signature. Returns the
  /// number of entries newly marked.
  std::uint64_t MarkSupersededByContent(
      std::span<const std::uint64_t> content_ids);

  // ---- observability ----

  /// The registry this server's counters live in (Options::metrics, or
  /// the private one created when none was supplied). Never null.
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }
  /// Per-stage trace ring every handled request lands in (obs tier);
  /// slow threshold = Options::slow_request_ns. Never null.
  const std::shared_ptr<obs::TraceRing>& trace_ring() const {
    return trace_ring_;
  }

  // ---- wire protocol ----
  net::Response Handle(const net::Request& request) override;

  struct Stats {
    /// ADD requests that reached the post-authentication pipeline
    /// (bumped BEFORE the outcome is known). In every snapshot,
    /// accepted + duplicate + rate_limited + tenant_quota + adjacent
    /// <= adds_processed — the registry's ordering contract
    /// (obs/metrics.hpp) makes that hold even mid-traffic.
    std::uint64_t adds_processed = 0;
    std::uint64_t adds_accepted = 0;
    std::uint64_t adds_duplicate = 0;
    std::uint64_t rejected_bad_token = 0;
    std::uint64_t rejected_rate_limited = 0;
    std::uint64_t rejected_adjacent = 0;
    std::uint64_t rejected_malformed = 0;
    std::uint64_t gets_served = 0;
    /// Reply payload bytes emitted as owned (memcpy'd) bytes vs. as
    /// zero-copy shared segments, across every Handle() reply. A GET
    /// copies only its 4-byte count prefix and sends its entries as runs
    /// pointing into the log's arena, so under a polling workload shared
    /// ≫ copied — the structural proof that no GET copies an entry.
    std::uint64_t reply_bytes_copied = 0;
    std::uint64_t reply_bytes_shared = 0;
    /// ADD/ADD_BATCH frames refused because this server is a follower.
    std::uint64_t rejected_not_primary = 0;
    std::uint64_t repl_pulls_served = 0;    // kReplPull requests answered
    std::uint64_t repl_batches_applied = 0; // kReplBatch frames ingested
    std::uint64_t repl_entries_applied = 0; // entries committed via ingest
    std::uint64_t repl_entries_skipped = 0; // already-applied (idempotent)
    std::uint64_t repl_resets = 0;          // catch-up epoch adoptions
    std::uint64_t rejected_tenant_quota = 0;  // community budget exhausted
    std::uint64_t superseded_from_fp = 0;     // entries retired via
                                              // kMarkSuperseded batches
    std::uint64_t stats_served = 0;           // kStats requests answered
  };
  Stats GetStats() const;

 private:
  /// The post-authentication pipeline shared by AddSignature/AddBatch.
  Status AddDecoded(UserId user, const dimmunix::Signature& sig);

  /// Moves commit_seq_ and wakes parked WaitForCommit callers, if any.
  /// Call after the store change is published.
  void NoteCommit();

  /// The per-verb switch behind Handle(); the public wrapper adds the
  /// centralized reply-byte accounting (copied vs. shared) every exit
  /// path shares.
  net::Response HandleDispatch(const net::Request& request);

  /// kReplPull / kReplBatch processing (wire handlers).
  net::Response HandleReplPull(const net::Request& request);
  net::Response HandleReplBatch(const net::Request& request);

  /// kMarkSuperseded / kStats processing (wire handlers).
  net::Response HandleMarkSuperseded(const net::Request& request);
  net::Response HandleStats(const net::Request& request);

  Clock& clock_;
  const Options options_;
  const IdAuthority authority_;
  const std::unique_ptr<store::SignatureStore> store_;

  /// Registry-backed counters, resolved once at construction: every
  /// request path — including the rejection paths — bumps its counter
  /// via the registry's sharded lock-free hot path. The ADD outcome
  /// counters are registered BEFORE adds_processed so that snapshots
  /// preserve sum(outcomes) <= processed (see obs/metrics.hpp).
  struct Counters {
    obs::Counter* adds_accepted = nullptr;
    obs::Counter* adds_duplicate = nullptr;
    obs::Counter* rejected_bad_token = nullptr;
    obs::Counter* rejected_rate_limited = nullptr;
    obs::Counter* rejected_adjacent = nullptr;
    obs::Counter* rejected_malformed = nullptr;
    obs::Counter* rejected_tenant_quota = nullptr;
    obs::Counter* adds_processed = nullptr;
    obs::Counter* gets_served = nullptr;
    obs::Counter* reply_bytes_copied = nullptr;
    obs::Counter* reply_bytes_shared = nullptr;
    obs::Counter* rejected_not_primary = nullptr;
    obs::Counter* repl_pulls_served = nullptr;
    obs::Counter* repl_batches_applied = nullptr;
    obs::Counter* repl_entries_applied = nullptr;
    obs::Counter* repl_entries_skipped = nullptr;
    obs::Counter* repl_resets = nullptr;
    obs::Counter* superseded_from_fp = nullptr;
    obs::Counter* stats_served = nullptr;
  };
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  Counters stats_;
  /// server.get.read_ns: time inside the store's ReadSince for a GET.
  obs::Histogram* get_read_ns_ = nullptr;
  /// store.persist.save_ns: saves that wrote something.
  obs::Histogram* save_ns_ = nullptr;
  /// store.persist.failures: saves that returned an error.
  obs::Counter* save_failures_ = nullptr;
  std::shared_ptr<obs::TraceRing> trace_ring_;
  /// Snapshot-time export of the store tier (db size, epoch, superseded
  /// marks, what the DB file holds and what saving cost) — state the
  /// store aggregates itself.
  obs::ProbeHandle store_probe_;

  /// Commit notification (see NoteCommit / WaitForCommit). Both atomics
  /// are seq_cst: the bump-then-probe argument in NoteCommit needs one
  /// total order over the bump, the waiter count and the waiter's check.
  /// Every accepted ADD writes the sequence, so it gets its own line.
  alignas(64) std::atomic<std::uint64_t> commit_seq_{0};
  std::atomic<std::size_t> commit_waiters_{0};
  std::mutex commit_mu_;
  std::condition_variable commit_cv_;
};

}  // namespace communix
