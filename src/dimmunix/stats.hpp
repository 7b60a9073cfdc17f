// Runtime statistics: public snapshot struct + relaxed-atomic counter
// shard.
//
// The runtime used to keep one shared relaxed-atomic Counters mirror;
// every fast-path acquisition still touched those shared cachelines. The
// counters are now sharded: each ThreadContext owns a StatCounters the
// owning thread bumps without contention, the runtime keeps one more
// shard for events with no acquiring thread (index republishes, history
// injection, reaping), and GetStats() sums the shards — the same
// aggregation scheme as the Communix server's sharded store stats.
// Tombstoned contexts fold their shard into the runtime's before they are
// reaped, so totals are exact across attach/detach churn.
#pragma once

#include <atomic>
#include <cstdint>

namespace communix::dimmunix {

/// Plain aggregated snapshot, returned by DimmunixRuntime::GetStats().
struct RuntimeStats {
  std::uint64_t acquisitions = 0;
  std::uint64_t contended_acquisitions = 0;
  std::uint64_t avoidance_suspensions = 0;
  std::uint64_t yield_cycle_overrides = 0;
  std::uint64_t deadlocks_detected = 0;
  std::uint64_t signatures_learned = 0;
  /// Detections that generalized an existing local signature (§III-D
  /// merge rule 1) instead of adding a new history entry.
  std::uint64_t local_generalizations = 0;
  std::uint64_t false_positives_flagged = 0;
  /// Acquisitions completed by the lock-free path (candidate-free top
  /// frame, uncontended CAS) without touching the runtime mutex.
  std::uint64_t fast_path_acquisitions = 0;
  /// Releases that neither took the runtime mutex nor had to wake anyone.
  std::uint64_t fast_path_releases = 0;
  /// Acquisitions that entered the global-lock slow path (every
  /// acquisition, in kGlobalLock mode).
  std::uint64_t slow_path_entries = 0;
  /// Times a thread parked in the runtime's version-gated wait loop.
  std::uint64_t wait_rounds = 0;
  /// Releases that transferred ownership directly to a queued waiter
  /// (the waiter bit was set) instead of freeing the owner word.
  std::uint64_t handoffs = 0;
  /// Fast-path claim CASes that failed while the waiter bit was set: a
  /// would-be barger turned away from a monitor with parked waiters. The
  /// barging protocol could have let such a CAS steal the monitor right
  /// after a release; direct handoff makes the steal structurally
  /// impossible (the word never reads free while the queue is non-empty).
  std::uint64_t barges_prevented = 0;
  /// Full instantiation scans actually executed by the avoidance module.
  std::uint64_t instantiation_scans = 0;
  /// Instantiation scans the adaptive gate actually elided (no thread
  /// occupied any other signature position, and the round was not a
  /// sampled verification). scans_skipped + instantiation_scans equals
  /// the candidate-hit scan evaluations; decisions are unchanged.
  std::uint64_t scans_skipped = 0;
  /// Scans the adaptive gate ran anyway (1-in-N sampling of skips) to
  /// validate the gate invariant.
  std::uint64_t sampled_verification_scans = 0;
  /// Sampled verification scans that found an instantiation the gate
  /// claimed impossible. Always 0 unless the occupancy protocol is
  /// broken; the runtime fails safe (yields as the reference would).
  std::uint64_t adaptive_gate_mismatches = 0;
  /// Times the avoidance index was rebuilt and re-published (total).
  std::uint64_t index_republishes = 0;
  /// Republishes that re-indexed only the changed records (every other
  /// entry and key slot shared with the previous snapshot) vs. ones
  /// built from scratch (a history assigned whole, or auto sizing
  /// widening the occupancy table).
  std::uint64_t index_delta_rebuilds = 0;
  std::uint64_t index_full_rebuilds = 0;
  /// Signature entries delta rebuilds reused (not deep-copied).
  std::uint64_t index_entries_reused = 0;
  /// Tombstoned thread contexts reclaimed.
  std::uint64_t threads_reaped = 0;

  // ---- gauges (current state, not counter shards) ----

  /// Occupancy-table width currently in effect (see
  /// Options::occupancy_buckets; auto mode grows it at republish).
  std::uint64_t occupancy_buckets = 0;
  /// Distinct index keys sharing an occupancy bucket in the *current*
  /// avoidance-index snapshot. Each collision costs lost gate skips
  /// whenever the colliding key is occupied; a persistently nonzero
  /// value is the signal to widen the table.
  std::uint64_t occupancy_key_collisions = 0;
};

/// One shard of relaxed-atomic counters (same shape as the Communix
/// server's Stats). Owned by a ThreadContext (bumped contention-free by
/// the owning thread) or by the runtime (writer-side events).
struct StatCounters {
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<std::uint64_t> contended_acquisitions{0};
  std::atomic<std::uint64_t> avoidance_suspensions{0};
  std::atomic<std::uint64_t> yield_cycle_overrides{0};
  std::atomic<std::uint64_t> deadlocks_detected{0};
  std::atomic<std::uint64_t> signatures_learned{0};
  std::atomic<std::uint64_t> local_generalizations{0};
  std::atomic<std::uint64_t> false_positives_flagged{0};
  std::atomic<std::uint64_t> fast_path_acquisitions{0};
  std::atomic<std::uint64_t> fast_path_releases{0};
  std::atomic<std::uint64_t> slow_path_entries{0};
  std::atomic<std::uint64_t> wait_rounds{0};
  std::atomic<std::uint64_t> handoffs{0};
  std::atomic<std::uint64_t> barges_prevented{0};
  std::atomic<std::uint64_t> instantiation_scans{0};
  std::atomic<std::uint64_t> scans_skipped{0};
  std::atomic<std::uint64_t> sampled_verification_scans{0};
  std::atomic<std::uint64_t> adaptive_gate_mismatches{0};
  std::atomic<std::uint64_t> index_republishes{0};
  std::atomic<std::uint64_t> index_delta_rebuilds{0};
  std::atomic<std::uint64_t> index_full_rebuilds{0};
  std::atomic<std::uint64_t> index_entries_reused{0};
  std::atomic<std::uint64_t> threads_reaped{0};

  /// Adds this shard into `out` (relaxed loads; exact once the shard's
  /// owner has quiesced, which GetStats arranges by summing under the
  /// runtime lock).
  void AccumulateInto(RuntimeStats& out) const {
    out.acquisitions += acquisitions.load(std::memory_order_relaxed);
    out.contended_acquisitions +=
        contended_acquisitions.load(std::memory_order_relaxed);
    out.avoidance_suspensions +=
        avoidance_suspensions.load(std::memory_order_relaxed);
    out.yield_cycle_overrides +=
        yield_cycle_overrides.load(std::memory_order_relaxed);
    out.deadlocks_detected +=
        deadlocks_detected.load(std::memory_order_relaxed);
    out.signatures_learned +=
        signatures_learned.load(std::memory_order_relaxed);
    out.local_generalizations +=
        local_generalizations.load(std::memory_order_relaxed);
    out.false_positives_flagged +=
        false_positives_flagged.load(std::memory_order_relaxed);
    out.fast_path_acquisitions +=
        fast_path_acquisitions.load(std::memory_order_relaxed);
    out.fast_path_releases +=
        fast_path_releases.load(std::memory_order_relaxed);
    out.slow_path_entries += slow_path_entries.load(std::memory_order_relaxed);
    out.wait_rounds += wait_rounds.load(std::memory_order_relaxed);
    out.handoffs += handoffs.load(std::memory_order_relaxed);
    out.barges_prevented += barges_prevented.load(std::memory_order_relaxed);
    out.instantiation_scans +=
        instantiation_scans.load(std::memory_order_relaxed);
    out.scans_skipped += scans_skipped.load(std::memory_order_relaxed);
    out.sampled_verification_scans +=
        sampled_verification_scans.load(std::memory_order_relaxed);
    out.adaptive_gate_mismatches +=
        adaptive_gate_mismatches.load(std::memory_order_relaxed);
    out.index_republishes += index_republishes.load(std::memory_order_relaxed);
    out.index_delta_rebuilds +=
        index_delta_rebuilds.load(std::memory_order_relaxed);
    out.index_full_rebuilds +=
        index_full_rebuilds.load(std::memory_order_relaxed);
    out.index_entries_reused +=
        index_entries_reused.load(std::memory_order_relaxed);
    out.threads_reaped += threads_reaped.load(std::memory_order_relaxed);
  }

  /// Folds another shard into this one (tombstone reap path; both shards
  /// quiescent under the runtime lock).
  void Absorb(const StatCounters& other) {
    RuntimeStats tmp;
    other.AccumulateInto(tmp);
    acquisitions.fetch_add(tmp.acquisitions, std::memory_order_relaxed);
    contended_acquisitions.fetch_add(tmp.contended_acquisitions,
                                     std::memory_order_relaxed);
    avoidance_suspensions.fetch_add(tmp.avoidance_suspensions,
                                    std::memory_order_relaxed);
    yield_cycle_overrides.fetch_add(tmp.yield_cycle_overrides,
                                    std::memory_order_relaxed);
    deadlocks_detected.fetch_add(tmp.deadlocks_detected,
                                 std::memory_order_relaxed);
    signatures_learned.fetch_add(tmp.signatures_learned,
                                 std::memory_order_relaxed);
    local_generalizations.fetch_add(tmp.local_generalizations,
                                    std::memory_order_relaxed);
    false_positives_flagged.fetch_add(tmp.false_positives_flagged,
                                      std::memory_order_relaxed);
    fast_path_acquisitions.fetch_add(tmp.fast_path_acquisitions,
                                     std::memory_order_relaxed);
    fast_path_releases.fetch_add(tmp.fast_path_releases,
                                 std::memory_order_relaxed);
    slow_path_entries.fetch_add(tmp.slow_path_entries,
                                std::memory_order_relaxed);
    wait_rounds.fetch_add(tmp.wait_rounds, std::memory_order_relaxed);
    handoffs.fetch_add(tmp.handoffs, std::memory_order_relaxed);
    barges_prevented.fetch_add(tmp.barges_prevented,
                               std::memory_order_relaxed);
    instantiation_scans.fetch_add(tmp.instantiation_scans,
                                  std::memory_order_relaxed);
    scans_skipped.fetch_add(tmp.scans_skipped, std::memory_order_relaxed);
    sampled_verification_scans.fetch_add(tmp.sampled_verification_scans,
                                         std::memory_order_relaxed);
    adaptive_gate_mismatches.fetch_add(tmp.adaptive_gate_mismatches,
                                       std::memory_order_relaxed);
    index_republishes.fetch_add(tmp.index_republishes,
                                std::memory_order_relaxed);
    index_delta_rebuilds.fetch_add(tmp.index_delta_rebuilds,
                                   std::memory_order_relaxed);
    index_full_rebuilds.fetch_add(tmp.index_full_rebuilds,
                                  std::memory_order_relaxed);
    index_entries_reused.fetch_add(tmp.index_entries_reused,
                                   std::memory_order_relaxed);
    threads_reaped.fetch_add(tmp.threads_reaped, std::memory_order_relaxed);
  }
};

}  // namespace communix::dimmunix
