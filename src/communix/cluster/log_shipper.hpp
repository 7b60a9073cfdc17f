// Primary-side log shipping (cluster tier).
//
// The primary assigns the global log order; the shipper streams its
// committed SignatureLog entries to each follower over kReplBatch
// frames, one leased feed cursor per follower. A cursor is only ever
// (re)established by the anti-entropy handshake — a kReplPull probe that
// reads the follower's epoch and committed length:
//
//   * epoch matches  -> resume shipping from the follower's length
//     (idempotent: entries the follower already has are never re-applied,
//     and a batch retransmitted after a lost reply is skipped by the
//     follower's from_index check);
//   * epoch differs  -> the follower is on another lineage. The next
//     batch carries the reset flag and replay restarts from index 0,
//     however long the log: one batch_limit bite per round trip. That
//     is the only way a follower catches up.
//
// A cursor is relative to the primary epoch it was set under; when the
// primary changes lineage (Compact, LoadFromFile) the session
// re-handshakes, so even a caught-up follower adopts the new epoch.
//
// When rounds run (Start): shipping is commit-driven. The daemon parks
// on the primary's commit sequence (CommunixServer::WaitForCommit) and
// ships as soon as a commit lands. While a follower is behind and the
// last round made progress it ships again at once, with no timer, so a
// backlog drains at batch_limit entries per round. Under load, the
// commits that land while a round's frames are in flight share the next
// round: the one outstanding frame per follower is the only coalescing,
// and no commit waits out a timer.
//
// Failure discipline: ANY transport or protocol error drops the session —
// the feed cursor is released immediately (never leaked across a
// disconnect) and the next round re-handshakes from the follower's own
// persisted position. Shipping state is therefore always soft: the
// follower's log is the durable cursor. A follower that accepts and
// never answers fails its step at the transport's io deadline
// (kFollowerDeadline for the daemon's TCP transports) like any other
// error.
//
// Status reads (GetFollowerStatus, the cluster.shipper.* probe) never
// wait on a follower: a step edits its session under the shipping lock,
// which it holds across network I/O, and then publishes the session's
// progress under a second lock that guards nothing else.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "communix/server.hpp"
#include "net/message.hpp"

namespace communix::cluster {

class LogShipper {
 public:
  /// How long the daemon's follower transports wait on one connect, send
  /// or reply. A 256-entry frame applies in milliseconds, so only a stuck
  /// or vanished follower reaches it; its round then fails, drops the
  /// session and retries after ship_period_ms, and Stop returns.
  static constexpr std::chrono::milliseconds kFollowerDeadline{3000};

  struct Options {
    /// Entries per kReplBatch frame (bounds frame size and the latency
    /// of one shipping step).
    std::size_t batch_limit = 256;
    /// Retry interval of the background daemon, in real milliseconds:
    /// how long it waits before retrying a follower that is behind but
    /// could not be advanced (unreachable, or refusing frames). Healthy
    /// shipping is driven by commits, not by this period.
    std::size_t ship_period_ms = 20;
  };

  explicit LogShipper(CommunixServer& primary)
      : LogShipper(primary, Options{}) {}
  LogShipper(CommunixServer& primary, Options options);
  ~LogShipper();

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// Registers a follower endpoint; returns its id. The transport must
  /// outlive the shipper.
  std::size_t AddFollower(std::string name, net::ClientTransport& transport);
  std::size_t follower_count() const;

  /// One shipping step for one follower: handshake if the session has no
  /// cursor under the primary's current epoch, then at most one
  /// kReplBatch frame. Returns the number of feed entries shipped
  /// (0 = caught up), or the error that dropped the session.
  Result<std::size_t> ShipOnce(std::size_t id);

  /// One shipping step per follower, pipelined: followers whose
  /// transport is a net::PipelinedClientTransport get their frames
  /// sent back-to-back BEFORE any reply is collected, so a round's
  /// wall-clock is one round trip (plus the slowest follower's apply),
  /// not the sum over followers — catch-up is O(lag), not
  /// O(lag × followers), in round-trip terms. Followers on plain Call
  /// transports are served synchronously in the same round. Handshakes
  /// (rare: session establishment only) stay synchronous. Per-follower
  /// errors are absorbed (the dropped session re-handshakes next
  /// round). Returns feed entries shipped this round.
  std::size_t ShipRound();

  /// Pumps rounds until every follower acknowledges the primary's
  /// current committed length (or `max_rounds` pass). False if some
  /// follower is still behind/unreachable.
  bool PumpUntilSynced(std::size_t max_rounds = 1000);

  /// Background shipping daemon: commit-driven rounds (see the file
  /// comment). Stop wakes a parked daemon and joins it.
  void Start();
  void Stop();

  struct FollowerStatus {
    std::string name;
    /// Leased feed cursor: next primary index to ship. nullopt = no
    /// session (never handshaken, or dropped by an error).
    std::optional<std::uint64_t> cursor;
    /// Primary entries not yet acknowledged by this follower (computed
    /// against the primary's current committed length; full lag when no
    /// session is live).
    std::uint64_t lag = 0;
    std::uint64_t entries_shipped = 0;
    std::uint64_t handshakes = 0;
    std::uint64_t resets = 0;   // catch-up restarts (epoch mismatch)
    std::uint64_t drops = 0;    // sessions dropped by an error
  };
  FollowerStatus GetFollowerStatus(std::size_t id) const;

  /// Number of live feed cursors. After a replica disconnect this drops
  /// — the "no leaked cursor" invariant the tests assert.
  std::size_t active_feed_cursors() const;

  /// Registers a snapshot-time probe emitting the shipping aggregates
  /// (cluster.shipper.*: entries/handshakes/resets/drops summed over
  /// followers, rounds that sent at least one frame, plus
  /// lag and live-cursor gauges). Release the handle before destroying
  /// the shipper. The cluster.shipper.ack_lag_ns histogram (per
  /// acknowledged batch: primary clock minus the first entry's added_at)
  /// lives in the primary's registry, CommunixServer::metrics().
  [[nodiscard]] obs::ProbeHandle ExportStats(
      obs::MetricsRegistry& registry) const;

 private:
  /// What status reads see of a session: its name, cursor and counters.
  struct Progress {
    std::string name;
    std::optional<std::uint64_t> cursor;
    /// Primary epoch the cursor is relative to.
    std::uint64_t epoch = 0;
    bool pending_reset = false;
    std::uint64_t entries_shipped = 0;
    std::uint64_t handshakes = 0;
    std::uint64_t resets = 0;
    std::uint64_t drops = 0;
  };

  struct Session : Progress {
    net::ClientTransport* transport = nullptr;
    /// Daemon rounds leave a dropped session alone until then.
    std::chrono::steady_clock::time_point retry_at;
  };

  /// One outbound kReplBatch frame prepared for a session, plus what
  /// ProcessReplyLocked needs to interpret its reply.
  struct PreparedStep {
    net::Request request;
    std::uint64_t epoch = 0;  // lineage the frame was built under
    std::uint64_t from_index = 0;
    bool reset = false;
    /// added_at of the batch's first entry (the ack-lag sample's start);
    /// nullopt for an empty batch.
    std::optional<TimePoint> first_added_at;
  };

  /// What one ShipRound did, for the daemon's park-or-continue choice.
  struct RoundOutcome {
    std::size_t entries = 0;  // feed entries acknowledged
    bool progressed = false;  // some follower advanced or adopted a lineage
    bool behind = false;      // some follower is not synced after the round
  };

  /// Releases the session's cursor (error path). Caller holds mu_.
  Status DropSessionLocked(Session& s, Status cause);

  /// Anti-entropy handshake (synchronous kReplPull probe); establishes
  /// the session's cursor. Caller holds mu_; session has no cursor.
  Status HandshakeLocked(Session& s);

  /// Handshakes unless the session has a cursor under the primary's
  /// current epoch. Caller holds mu_.
  Status EnsureSessionLocked(Session& s);

  /// Whether `p` acknowledges exactly the primary's `size` entries under
  /// `epoch`; and its lag (everything when it has no live cursor).
  static bool Synced(const Progress& p, std::uint64_t size,
                     std::uint64_t epoch);
  static std::uint64_t Lag(const Progress& p, std::uint64_t size,
                           std::uint64_t epoch);

  /// Copies every session's progress to published_. Caller holds mu_.
  void PublishLocked();

  /// Builds the session's next outbound batch; nullopt when caught up.
  /// Caller holds mu_; session has a cursor.
  std::optional<PreparedStep> PrepareSendLocked(Session& s);

  /// Applies the reply of a prepared frame to the session (cursor
  /// advance, counters) or drops it. Caller holds mu_.
  Result<std::size_t> ProcessReplyLocked(Session& s, const PreparedStep& step,
                                         const net::Response& resp);

  /// Prepare + synchronous Call + process (the non-pipelined path and
  /// ShipOnce). Caller holds mu_.
  Result<std::size_t> ShipOnceLocked(Session& s);

  /// ShipRound's body. `backoff` (daemon rounds) skips sessions dropped
  /// less than ship_period_ms ago.
  RoundOutcome RunRound(bool backoff);

  void DaemonLoop();

  CommunixServer& primary_;
  const Options options_;
  /// Credential for the reserved replication principal (followers
  /// refuse unauthenticated kReplBatch ingest).
  const UserToken repl_token_;

  /// cluster.shipper.ack_lag_ns, in the primary's registry.
  obs::Histogram* const ack_lag_;

  /// The shipping lock: held by a step across its network I/O.
  std::mutex mu_;
  std::vector<Session> sessions_;

  /// Each session's progress as its last step left it. Guards published_
  /// alone: taken after mu_, never across I/O.
  mutable std::mutex published_mu_;
  std::vector<Progress> published_;
  std::atomic<std::uint64_t> rounds_{0};  // rounds that sent a frame

  std::atomic<bool> running_{false};
  std::thread daemon_;
};

}  // namespace communix::cluster
