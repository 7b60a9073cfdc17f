// Failover-aware client transport for a replicated deployment.
//
// One logical endpoint over a primary plus N follower replicas:
//
//   * Writes (ADD / ADD_BATCH) go to the primary — it alone assigns the
//     global log order.
//   * Reads (GET / PING / ISSUE_ID / REPL_PULL probes) fan out
//     round-robin across the replicas, falling back to the primary, and
//     fail over on connection loss: a transport error marks the endpoint
//     down, the next endpoint is tried within the same Call, and a later
//     success marks it up again (down endpoints are retried last, which
//     is how they heal after a restart).
//
// Cursor stability. GET(k) replies are byte-identical across replicas of
// the same epoch (the log-shipping invariant), so failing over can never
// rewrite history — but a lagging replica can answer with a shorter
// database. The client therefore tracks the highest committed length it
// has ever observed and, for GET requests that would *regress* below it
// (a fresh scan answered by a stale replica), retries the remaining
// endpoints until one covers the known length; replicas whose epoch
// provably differs from the primary's are skipped for reads outright.
// Incremental GET(k) cursors built on replies from this client are thus
// monotone: they never observe index i holding two different byte
// strings, and never see the stream shrink.
//
// Lineage changes. The floor is per lineage: Compact() rewrites the log
// under a new epoch, where indexes name different bytes. When a replica
// still reports another epoch than the primary's cached one after a
// re-probe, the client re-probes the primary as well. If the primary's
// epoch moved, the client adopts it, resets the floor to 0 and forgets
// the other replicas' cached epochs, so every replica that has caught up
// serves reads again.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace communix::cluster {

class ClusterClient final : public net::ClientTransport {
 public:
  struct Endpoint {
    std::string name;
    net::ClientTransport* transport = nullptr;
  };

  struct Options {
    /// Down-endpoint revival backoff: probe one down endpoint every Kth
    /// successful read, not every read. Probing a dead node costs a
    /// connect timeout over TCP, so an unthrottled probe-per-read taxes
    /// the whole read path for as long as a node stays dead. 1 restores
    /// the old probe-every-read behavior; 0 is treated as 1.
    std::size_t heal_probe_period = 8;
  };

  ClusterClient(Endpoint primary, std::vector<Endpoint> replicas)
      : ClusterClient(std::move(primary), std::move(replicas), Options{}) {}
  ClusterClient(Endpoint primary, std::vector<Endpoint> replicas,
                Options options);

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Routes one request per the policy above. Transport-level failure is
  /// returned only when every eligible endpoint failed.
  Result<net::Response> Call(const net::Request& request) override;

  /// GET(from) convenience: serialized signatures with index >= from, in
  /// index order (the CommunixClient daemon codepath, minus the repo).
  /// One routed GET plus a parse of its reply.
  Result<std::vector<std::vector<std::uint8_t>>> FetchSince(
      std::uint64_t from);

  /// Highest committed length any reply has shown this client (the
  /// monotonic-read floor).
  std::uint64_t known_log_size() const {
    return known_log_size_.load(std::memory_order_acquire);
  }

  struct Stats {
    std::uint64_t writes_to_primary = 0;
    std::uint64_t reads_to_replicas = 0;
    std::uint64_t reads_to_primary = 0;
    std::uint64_t failovers = 0;          // endpoint marked down mid-call
    std::uint64_t stale_read_retries = 0; // regressing replies discarded
    /// Calls that had to settle for a reply below the known length
    /// (every live endpoint lagged — primary dead and replicas behind).
    std::uint64_t short_reads = 0;
    std::uint64_t epoch_skips = 0;        // replicas skipped: epoch mismatch
    /// Revival probes actually sent to down endpoints: throttled by
    /// Options::heal_probe_period, plus one whenever a GET reaches a down
    /// replica because no endpoint ahead of it could serve.
    std::uint64_t heal_probes = 0;
  };
  Stats GetStats() const;

  /// Registers a snapshot-time probe emitting every GetStats() field as
  /// a cluster.client.* counter (plus an endpoints-up gauge). Release
  /// the handle before destroying the client.
  [[nodiscard]] obs::ProbeHandle ExportStats(
      obs::MetricsRegistry& registry) const;

  /// Per-endpoint liveness snapshot (index 0 = primary).
  std::vector<bool> EndpointUp() const;

 private:
  struct Slot {
    Endpoint endpoint;
    bool down = false;
    /// Last epoch this endpoint reported (0 = unknown). Probed lazily
    /// via kReplPull; re-probed after the endpoint comes back up.
    std::uint64_t epoch = 0;
  };

  /// Calls `slot` (primary lock dropped during I/O is unnecessary here:
  /// transports are synchronous and callers already serialize on mu_).
  Result<net::Response> CallSlotLocked(Slot& slot,
                                       const net::Request& request);

  /// Ensures slot.epoch is known (kReplPull probe). Best-effort.
  void ProbeEpochLocked(Slot& slot);

  /// Re-probes the primary's epoch. If it moved to a new lineage, adopts
  /// it, resets the monotonic-read floor and forgets the cached epochs
  /// of every replica but slots_[fresh], which was just probed.
  void RefreshPrimaryEpochLocked(std::size_t fresh);

  /// Opportunistic revival: probes one down endpoint (round-robin) so a
  /// restarted node rejoins the fan-out instead of staying excluded
  /// forever. Invoked from the read path every heal_probe_period-th
  /// successful read (see MaybeHealLocked).
  void HealOneDownEndpointLocked();

  /// One revival probe (a kReplPull, counted in heal_probes) of a down
  /// endpoint; success clears the mark and refreshes its epoch.
  void ReviveLocked(Slot& slot);

  /// Backoff gate in front of HealOneDownEndpointLocked: probes fire on
  /// every Kth successful read while something is down. The counter only
  /// advances while a down endpoint exists, so the first probe after a
  /// failure happens K reads later, then every K — never one per read.
  void MaybeHealLocked();

  /// Reply-derived committed length for a GET reply, if parseable.
  static bool GetCoverage(const net::Request& request,
                          const net::Response& resp, std::uint64_t* coverage,
                          std::uint64_t* from, std::uint32_t* count);

  const std::size_t heal_probe_period_;

  mutable std::mutex mu_;
  std::vector<Slot> slots_;  // [0] = primary, [1..] = replicas
  std::size_t rr_ = 0;       // round-robin origin over replicas
  std::size_t heal_rr_ = 0;  // round-robin origin over down endpoints
  std::size_t reads_since_heal_ = 0;  // backoff counter (guarded by mu_)
  std::uint64_t heal_probes_ = 0;     // guarded by mu_

  std::atomic<std::uint64_t> known_log_size_{0};

  std::uint64_t writes_to_primary_ = 0;   // guarded by mu_
  std::uint64_t reads_to_replicas_ = 0;
  std::uint64_t reads_to_primary_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t stale_read_retries_ = 0;
  std::uint64_t short_reads_ = 0;
  std::uint64_t epoch_skips_ = 0;
};

}  // namespace communix::cluster
