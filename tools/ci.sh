#!/usr/bin/env bash
# CI entry point.
#
# Default: tier-1 verify (configure + build + full ctest) followed by the
# Figure-2 server bench (throughput sweep, replica read fan-out, follower
# catch-up by replay over TCP, scan cost and zero-copy net series) and
# the Table-II
# overhead bench (fast-path-vs-global-lock comparison), both in smoke
# mode, recording the perf trajectory in BENCH_fig2.json and
# BENCH_overhead.json at the repo root.
#
# Both the default and --tsan modes additionally run the net smoke:
# slow-client containment (1-byte reader capped + disconnected while
# healthy clients stay flat on a single-loop server), hostile framing
# (1-byte request trickle, every-byte reply truncation, pipelined-burst
# reply coalescing, one segment per client request), and the two-process
# shipper (pipelined ShipRound + SIGTERM/restart recovery against real
# communix_server daemons over reconnecting TCP transports, and a
# follower that accepts and never answers: kStats still answered at
# once, SIGTERM still exits within the follower deadline).
#
# Both modes additionally run the cluster smoke:
# a primary + 2 log-shipping followers over inproc transport with a
# kill-primary failover check (tests/cluster/cluster_client_test.cpp,
# suite ClusterSmoke), the client's reads across a Compact() lineage
# change (ClusterClientTest.*Lineage*), a 20,000-entry follower catching
# up by replay while readers scan it, and the kMarkSuperseded verb (wire
# fuzzing and serving, tests/cluster/mark_superseded_test.cpp).
#
# Every filtered gtest run goes through run_filtered, which fails when a
# ':'-separated pattern of its --gtest_filter matches no test: the
# installed gtest (1.11) has no --gtest_fail_if_no_test_run, so a stale
# pattern would otherwise pass silently.
#
# The default mode also repeats the monitor wake-path stress (many
# waiters + churning bargers, handoff racing an RCU index republish),
# the commit-driven shipper cases (park on the primary's commit
# sequence, wake on ADD/Compact, ship back-to-back commits each at once
# with no coalescing timer, drain a backlog, Stop while parked) and
# the SIGKILL persistence case (both daemons killed after a storm of
# ADDs restart on their appended DB files) beyond their single ctest
# pass.
#
# --tsan: ThreadSanitizer build (separate build-tsan dir) running the
# dimmunix + util + cluster test binaries — the concurrency-bearing
# layers of the client runtime (fast-path publication protocol, direct
# monitor handoff + wake turnstile, adaptive occupancy gate, schedule
# harness) and of the replication tier (feed reads racing
# ADDs, kReplPull replies racing lineage changes, background shipper and
# its commit park/wake handshake, two primaries' shippers racing into
# one follower) — with a repeated run of the fairness and
# wakeup-ordering suites on top.
#
# --asan: AddressSanitizer build (separate build-asan dir) running the
# dimmunix + util test binaries — lifetime coverage for the context
# reaper and for the entries and key slots that successive index
# snapshots share (persistent maps edited in place only where no other
# snapshot reaches, candidates pointing into the shared entries) —
# plus the agent and local-repository suites (incremental inspection),
# the store, DB file parser, server persistence, zero-copy,
# framing, slow-client, TCP, fault-injection and two-process suites over
# ASan-built daemons: GET replies carry raw pointers into log memory
# through the outbound queue, pinned only by their owner, and each event
# loop frees its connections (fds closed mid-batch, on errors, stalls
# and Stop), which are exactly the lifetime errors ASan catches, the DB
# file parser reads every truncated, bit-flipped
# and hostile-count v1-v3 file of CheckpointTest, and the DB file loader
# every cut-short and bit-flipped v4 file of V4FileTest.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

# run_filtered BINARY FILTER [GTEST_ARGS...]: checks that every
# ':'-separated pattern of FILTER matches at least one test of BINARY,
# then runs BINARY --gtest_filter=FILTER GTEST_ARGS...
run_filtered() {
  local bin="$1" filter="$2" pattern listed
  shift 2
  local -a patterns
  IFS=':' read -ra patterns <<< "${filter}"
  for pattern in "${patterns[@]}"; do
    listed="$("${bin}" --gtest_list_tests --gtest_filter="${pattern}")"
    if ! grep -q '^  ' <<< "${listed}"; then
      echo "ci: gtest filter pattern '${pattern}' matches no test in ${bin}"
      exit 1
    fi
  done
  "${bin}" --gtest_filter="${filter}" "$@"
}

if [[ "${1:-}" == "--tsan" ]]; then
  cmake -B build-tsan -S . -DCOMMUNIX_TSAN=ON
  cmake --build build-tsan -j"${JOBS}" --target dimmunix_tests util_tests \
        cluster_tests communix_tests net_tests communix_server communix_stats
  # tools/tsan.supp scopes out a libstdc++ atomic<shared_ptr> internal
  # (relaxed spinlock unlock in _Sp_atomic::load) TSAN cannot model.
  TSAN="halt_on_error=1 suppressions=$(pwd)/tools/tsan.supp"
  TSAN_OPTIONS="${TSAN}" ./build-tsan/dimmunix_tests
  # Wake-path focus under TSAN: the direct-handoff fairness suite (strict
  # no-barging protocol, wake-path stress, handoff x RCU-republish
  # regression) and the wakeup-ordering harness scripts (two-sided
  # suspension drains, hook-selected winners), repeated — the interesting
  # interleavings are rare in a single pass.
  TSAN_OPTIONS="${TSAN}" run_filtered ./build-tsan/dimmunix_tests \
      'FairnessTest.*:ScheduleHarnessTest.TwoSidedSuspensionRacesAreDeterministic:ScheduleHarnessTest.MultiWaiterHandoffDrainsInFifoOrder:ScheduleHarnessTest.WakeupOrderingHookControlsWhichWaiterWins' \
      --gtest_repeat=5
  TSAN_OPTIONS="${TSAN}" ./build-tsan/util_tests
  # Store-tier smoke under TSAN: concurrent ReadSince (arena runs read
  # lock-free while appends cross block boundaries) racing ADDs, the
  # arena's block edges, and replies that outlive a log swap (RCU
  # publish of a fresh log) and the store itself.
  TSAN_OPTIONS="${TSAN}" run_filtered ./build-tsan/communix_tests \
      '*ConcurrentReadersAndWritersStayCoherent*:ArenaReadTest.*:*ReplyPinTest*'
  # Cluster smoke under TSAN: kill-primary failover, the background
  # shipper racing ADDs and lock-free feed reads, the commit-driven
  # daemon cases (the park/wake handshake on the primary's commit
  # sequence is a lost-wakeup hazard), a 20,000-entry follower catching
  # up by replay while readers scan it, two primaries' shippers racing
  # into one follower (each frame must land whole in one lineage), the
  # client's reads across a lineage change, kReplPull replies racing
  # mark/Compact lineage changes, and the kMarkSuperseded verb.
  TSAN_OPTIONS="${TSAN}" run_filtered ./build-tsan/cluster_tests \
      'ClusterSmoke.*:LogShipperTest.BackgroundDaemonShipsConcurrentAdds:LogShipperTest.CatchUpResetUnderConcurrentReadersIsSafe:LogShipperTest.FarBehindReplayUnderConcurrentReadersIsSafe:LogShipperTest.TwoPrimariesNeverInterleaveLineagesInOneFollower:LogShipperTest.Daemon*:ClusterClientTest.*Lineage*:ReplPullLineageTest.*:MarkSupersededWireTest.*:MarkSupersededServingTest.*'
  # Net smoke under TSAN: the accepting loop's eventfd hand-off of new
  # connections to the other loops, Stop joining loops mid-serve, each
  # loop's non-blocking gather flush and EPOLLOUT re-arms, and
  # slow-client containment. The two-process shipper (a TSAN parent
  # driving TSAN-built communix_server children over real sockets) runs
  # below.
  TSAN_OPTIONS="${TSAN}" run_filtered ./build-tsan/net_tests \
      'SlowClientTest.*:FramingTest.*:TcpTest.*'
  # Two-process shipper plus the observability scrape: StatsScrape drives
  # ADDs at a real primary, polls the follower's kStats snapshot until
  # replication catches up, and runs the communix_stats CLI (popen'd from
  # the TSAN parent against TSAN-built daemons) over both processes.
  TSAN_OPTIONS="${TSAN}" run_filtered ./build-tsan/cluster_tests \
      'TwoProcessShipper.*:StatsScrape.*'
  echo "ci: tsan clean (dimmunix_tests, util_tests, store-tier smoke, cluster smoke incl. far-behind replay and two-primary race, net smoke, stats scrape)"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-asan -S . -DCOMMUNIX_ASAN=ON
  cmake --build build-asan -j"${JOBS}" --target dimmunix_tests util_tests \
        communix_tests net_tests cluster_tests communix_server communix_stats
  ASAN="halt_on_error=1"
  ASAN_OPTIONS="${ASAN}" ./build-asan/dimmunix_tests
  ASAN_OPTIONS="${ASAN}" ./build-asan/util_tests
  # Store and server: the log arena, replies pinning a swapped-out log,
  # the DB file parser on damaged and hostile v1-v3 files, the v4 file's
  # appends, cut-short tails and bit flips, server persistence, and the
  # zero-copy reply accounting. Agent and local repository: validation
  # and batched installs into the runtime's history, and the
  # repository's incremental inspection cursor across load and append.
  ASAN_OPTIONS="${ASAN}" run_filtered ./build-asan/communix_tests \
      'SignatureLogTest.*:*StoreBackendTest*:*ReadSinceTest*:ArenaReadTest.*:*ReplyPinTest*:CheckpointTest.*:*CheckpointStoreTest*:V4FileTest.*:ServerPersistenceTest.*:ServerTest.*:MalformedBatchTest.*:*ZeroCopyReplyTest*:AgentTest.*:RepositoryTest.*'
  # Net: replies of many runs flushed across partial writes, a slow
  # reader disconnected with its queue still holding pinned runs, and
  # the event loops' connection lifetimes: closed on garbage, oversized
  # frames, abrupt disconnects and Stop, mid-batch.
  ASAN_OPTIONS="${ASAN}" run_filtered ./build-asan/net_tests \
      'FramingTest.*:SlowClientTest.*:TcpTest.*:FaultInjectionTest.*'
  # Two-process shipper against ASan-built communix_server daemons.
  ASAN_OPTIONS="${ASAN}" run_filtered ./build-asan/cluster_tests \
      'TwoProcessShipper.*'
  echo "ci: asan clean (dimmunix_tests, util_tests, store + DB file +" \
       "server + zero-copy + agent + repository, framing + slow-client +" \
       "tcp + fault injection, two-process shipper)"
  exit 0
fi

cmake -B build -S .
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

# Wake-path stress smoke: many waiters + churning bargers on one monitor
# plus the handoff-during-RCU-republish regression, repeated so a lost
# wakeup (which hangs) or a dropped queue entry (which undercounts) has
# many chances to fire.
run_filtered ./build/dimmunix_tests \
    'FairnessTest.WakePathStressManyWaitersChurningBargers:FairnessTest.HandoffDuringIndexRepublishDoesNotLoseWakeup' \
    --gtest_repeat=10
echo "ci: wake-path stress smoke passed"

# Commit-driven shipper smoke: the daemon parks on the primary's commit
# sequence with a 60 s retry period, so a lost wakeup shows up as a
# missed 5 s deadline, and a commit that waits out a timer shows up in
# the back-to-back case's bound. Repeated for the rare interleavings.
run_filtered ./build/cluster_tests 'LogShipperTest.Daemon*' --gtest_repeat=20
echo "ci: commit-driven shipper smoke passed"

# SIGKILL persistence smoke: both daemons are killed after a storm of
# ADDs, once their store.persist.* gauges report the whole log on disk,
# and each must restart on its appended DB file with at least that
# much. Repeated, since the kill lands at a different point of the
# daemons' save ticks each time.
run_filtered ./build/cluster_tests \
    'TwoProcessShipper.SigkillKeepsWhatThePersistGaugesReported' \
    --gtest_repeat=5
echo "ci: SIGKILL persistence smoke passed"

# Cluster smoke: primary + 2 followers over inproc, kill-primary failover,
# the client's reads across a Compact() lineage change, a 20,000-entry
# follower catching up by replay while readers scan it, and the
# kMarkSuperseded verb.
run_filtered ./build/cluster_tests \
    'ClusterSmoke.*:ClusterClientTest.*Lineage*:LogShipperTest.FarBehindReplayUnderConcurrentReadersIsSafe:MarkSupersededWireTest.*:MarkSupersededServingTest.*'
echo "ci: cluster smoke passed (failover, lineage change, far-behind replay, kMarkSuperseded)"

# Net smoke: slow-client containment + hostile framing on the
# non-blocking reply path, the zero-copy reply accounting, and the
# two-process shipper over real daemons.
run_filtered ./build/net_tests 'SlowClientTest.*:FramingTest.*'
run_filtered ./build/communix_tests '*ZeroCopyReplyTest*'
run_filtered ./build/cluster_tests 'TwoProcessShipper.*:StatsScrape.*'
echo "ci: net smoke passed (slow-client containment, framing, zero-copy replies, two-process shipper, stats scrape)"

# Observability smoke: a live two-process deployment (primary shipping to
# one follower) scraped over the kStats wire verb with the communix_stats
# CLI — key counters from the runtime/serving/net tiers must be non-zero,
# and the replication ledger must agree across the two processes
# (follower entries_applied == primary entries_shipped).
OBS_DIR="$(mktemp -d)"
OBS_PIDS=""
obs_cleanup() {
  # shellcheck disable=SC2086
  [[ -n "${OBS_PIDS}" ]] && kill ${OBS_PIDS} 2>/dev/null || true
  rm -rf "${OBS_DIR}"
}
trap obs_cleanup EXIT

obs_wait_port() {  # obs_wait_port LOGFILE -> sets OBS_PORT
  local log="$1"
  for _ in $(seq 1 100); do
    OBS_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "${log}" | head -1)"
    [[ -n "${OBS_PORT}" ]] && return 0
    sleep 0.1
  done
  echo "ci: daemon never reported its port (${log})"
  cat "${log}"
  return 1
}

./build/communix_server --port 0 --db "${OBS_DIR}/follower.db" \
    --role follower > "${OBS_DIR}/follower.log" 2>&1 &
OBS_PIDS="$!"
obs_wait_port "${OBS_DIR}/follower.log"
OBS_FPORT="${OBS_PORT}"
./build/communix_server --port 0 --db "${OBS_DIR}/primary.db" \
    --follower "127.0.0.1:${OBS_FPORT}" > "${OBS_DIR}/primary.log" 2>&1 &
OBS_PIDS="${OBS_PIDS} $!"
obs_wait_port "${OBS_DIR}/primary.log"
OBS_PPORT="${OBS_PORT}"

# One real client poll so the serving tier has traffic to account for.
./build/communix_client --host 127.0.0.1 --port "${OBS_PPORT}" \
    --repo "${OBS_DIR}/repo.db" --once

obs_get() { ./build/communix_stats "127.0.0.1:$1" --get "$2"; }
obs_nonzero() {
  local v
  v="$(obs_get "$1" "$2")"
  if [[ -z "${v}" || "${v}" -eq 0 ]]; then
    echo "ci: expected $2 > 0 on port $1, got '${v}'"
    exit 1
  fi
}
obs_nonzero "${OBS_PPORT}" dimmunix.acquisitions   # runtime self-check
obs_nonzero "${OBS_PPORT}" server.gets_served      # the client poll
obs_nonzero "${OBS_PPORT}" net.writev_flushes      # replies flushed
obs_nonzero "${OBS_FPORT}" dimmunix.acquisitions
SHIPPED="$(obs_get "${OBS_PPORT}" cluster.shipper.entries_shipped)"
APPLIED="$(obs_get "${OBS_FPORT}" server.repl_entries_applied)"
if [[ "${SHIPPED}" != "${APPLIED}" ]]; then
  echo "ci: replication ledger split: primary shipped ${SHIPPED}," \
       "follower applied ${APPLIED}"
  exit 1
fi
# The JSON snapshot round-trips through the offline renderer.
./build/communix_stats "127.0.0.1:${OBS_PPORT}" --json --traces 4 \
    > "${OBS_DIR}/snapshot.json"
./build/sig_inspect stats "${OBS_DIR}/snapshot.json" > /dev/null
obs_cleanup
trap - EXIT
echo "ci: observability smoke passed (kStats scrape of both daemons," \
     "ledger ${SHIPPED}==${APPLIED}, JSON snapshot re-rendered)"

./build/fig2_server_throughput --smoke --replicas=2 --json=BENCH_fig2.json
./build/table2_dos_overhead --smoke --json=BENCH_overhead.json
echo "ci: wrote $(pwd)/BENCH_fig2.json and $(pwd)/BENCH_overhead.json"
