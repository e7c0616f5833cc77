#!/usr/bin/env bash
# CI entry point.
#
# Default: tier-1 verify (configure + build + full ctest) followed by the
# Figure-2 server bench (sharded-vs-monolithic comparison) and the
# Table-II overhead bench (fast-path-vs-global-lock comparison), both in
# smoke mode, recording the perf trajectory in BENCH_fig2.json and
# BENCH_overhead.json at the repo root.
#
# Both the default and --tsan modes additionally run the net smoke:
# slow-client containment (1-byte reader capped + disconnected while
# healthy clients stay flat on a single-worker server), hostile framing
# (1-byte request trickle, every-byte reply truncation, pipelined-burst
# reply coalescing), and the two-process shipper (pipelined ShipRound +
# SIGTERM/restart recovery against real communix_server daemons over
# reconnecting TCP transports).
#
# Both modes additionally run the cluster smoke:
# a primary + 2 log-shipping followers over inproc transport with a
# kill-primary failover check (tests/cluster/cluster_client_test.cpp,
# suite ClusterSmoke), plus the store-tier smoke: checkpoint bootstrap
# of a far-behind follower and the client read cache exercised both on
# (ClusterClientCacheTest, equivalence trace) and off (the routing tests
# pin read_cache_slices = 0), and the sharded smoke: 2 community-sharded
# primary groups (2 followers each) behind the shard-map routing tier
# with a mid-run map bump (suite ShardedSmoke).
#
# The default mode also repeats the monitor wake-path stress (many
# waiters + churning bargers, handoff racing an index republish) beyond
# its single ctest pass, and builds and smoke-runs the repository
# benchmark (perfbench/: its tests plus a 5 s untraced run of each
# workload — fleet_sync, app_locks, immunity — each of which must report
# "correct": true).
#
# --tsan: ThreadSanitizer build (separate build-tsan dir) running the
# dimmunix + util + cluster test binaries — the concurrency-bearing
# layers of the client runtime (fast-path publication protocol, direct
# monitor handoff + wake turnstile, adaptive occupancy gate on both
# paths, schedule harness, thread pool) and of the replication tier (feed reads racing
# ADDs, background shipper) — with a repeated run of the fairness and
# wakeup-ordering suites on top.
#
# --asan: AddressSanitizer build (separate build-asan dir) running the
# same binaries — lifetime coverage for the context reaper and the
# entry sharing across delta-rebuilt index snapshots.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"

if [[ "${1:-}" == "--tsan" ]]; then
  cmake -B build-tsan -S . -DCOMMUNIX_TSAN=ON
  cmake --build build-tsan -j"${JOBS}" --target dimmunix_tests util_tests \
        cluster_tests communix_tests net_tests communix_server communix_stats
  # No suppressions: nothing in src/ uses std::atomic<std::shared_ptr>,
  # whose libstdc++ lock-bit protocol TSAN cannot model.
  TSAN="halt_on_error=1"
  TSAN_OPTIONS="${TSAN}" ./build-tsan/dimmunix_tests
  # Wake-path and gate focus under TSAN: the direct-handoff fairness
  # suite (strict no-barging protocol, wake-path stress, handoff x
  # RCU-republish regression), the wakeup-ordering harness scripts
  # (two-sided suspension drains, hook-selected winners), and the
  # adaptive gate's races (fast and slow gates interleaved step by step,
  # and the 4-thread gate stress), repeated — the interesting
  # interleavings are rare in a single pass.
  TSAN_OPTIONS="${TSAN}" ./build-tsan/dimmunix_tests \
      --gtest_filter='FairnessTest.*:ScheduleHarnessTest.TwoSidedSuspensionRacesAreDeterministic:ScheduleHarnessTest.MultiWaiterHandoffDrainsInFifoOrder:ScheduleHarnessTest.WakeupOrderingHookControlsWhichWaiterWins:GateRaceTest.*:FastPathStressTest.AdaptiveGateRacesAgreeWithVerificationScans' \
      --gtest_repeat=5
  TSAN_OPTIONS="${TSAN}" ./build-tsan/util_tests
  # Store-tier smoke under TSAN: concurrent ReadSince (2Q cache + RCU log
  # swap) racing ADDs on both backends.
  TSAN_OPTIONS="${TSAN}" ./build-tsan/communix_tests \
      --gtest_filter='*ConcurrentReadersAndWritersStayCoherent*'
  # Cluster smoke under TSAN: kill-primary failover, the background
  # shipper racing ADDs and lock-free feed reads, checkpoint bootstrap of
  # a far-behind follower, and the client read cache (on in the cache
  # suite, off in the routing tests it replaces).
  TSAN_OPTIONS="${TSAN}" ./build-tsan/cluster_tests \
      --gtest_filter='ClusterSmoke.*:LogShipperTest.BackgroundDaemonShipsConcurrentAdds:LogShipperTest.CatchUpResetUnderConcurrentReadersIsSafe:CheckpointBootstrapTest.*:ClusterClientCacheTest.*:ShardedSmoke.*'
  # Net smoke under TSAN: the poll-loop/worker conn handoff, the
  # non-blocking gather flush racing POLLOUT re-arms, slow-client
  # containment, and the two-process shipper (a TSAN parent driving
  # TSAN-built communix_server children over real sockets).
  TSAN_OPTIONS="${TSAN}" ./build-tsan/net_tests \
      --gtest_filter='SlowClientTest.*:FramingTest.*:TcpTest.*'
  # Two-process shipper plus the observability scrape: StatsScrape drives
  # ADDs at a real primary, polls the follower's kStats snapshot until
  # replication catches up, and runs the communix_stats CLI (popen'd from
  # the TSAN parent against TSAN-built daemons) over both processes.
  TSAN_OPTIONS="${TSAN}" ./build-tsan/cluster_tests \
      --gtest_filter='TwoProcessShipper.*:StatsScrape.*'
  echo "ci: tsan clean (dimmunix_tests, util_tests, store-tier smoke, cluster + sharded smoke, net smoke, stats scrape)"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  cmake -B build-asan -S . -DCOMMUNIX_ASAN=ON
  cmake --build build-asan -j"${JOBS}" --target dimmunix_tests util_tests
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/dimmunix_tests
  ASAN_OPTIONS="halt_on_error=1" ./build-asan/util_tests
  echo "ci: asan clean (dimmunix_tests, util_tests)"
  exit 0
fi

cmake -B build -S .
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

# Wake-path stress smoke: many waiters + churning bargers on one monitor
# plus the handoff-during-RCU-republish regression, repeated so a lost
# wakeup (which hangs) or a dropped queue entry (which undercounts) has
# many chances to fire.
./build/dimmunix_tests \
    --gtest_filter='FairnessTest.WakePathStressManyWaitersChurningBargers:FairnessTest.HandoffDuringIndexRepublishDoesNotLoseWakeup' \
    --gtest_repeat=10
echo "ci: wake-path stress smoke passed"

# Cluster smoke: primary + 2 followers over inproc, kill-primary failover,
# checkpoint bootstrap of a far-behind follower, and the client read cache
# on (ClusterClientCacheTest) and off (the routing tests pin it off).
# Sharded smoke: 2 groups x (primary + 2 followers) behind the shard-map
# routing tier, with a mid-run map bump the client must self-heal from.
./build/cluster_tests \
    --gtest_filter='ClusterSmoke.*:CheckpointBootstrapTest.*:ClusterClientCacheTest.*:ShardedSmoke.*'
echo "ci: cluster smoke passed (failover, checkpoint bootstrap, read cache, sharded routing)"

# Net smoke: slow-client containment + hostile framing on the
# non-blocking reply path, the zero-copy reply accounting on both store
# backends, and the two-process shipper over real daemons.
./build/net_tests --gtest_filter='SlowClientTest.*:FramingTest.*'
./build/communix_tests --gtest_filter='*ZeroCopyReplyTest*'
./build/cluster_tests --gtest_filter='TwoProcessShipper.*:StatsScrape.*'
echo "ci: net smoke passed (slow-client containment, framing, zero-copy replies, two-process shipper, stats scrape)"

# Observability smoke: a live two-process deployment (primary shipping to
# one follower) scraped over the kStats wire verb with the communix_stats
# CLI — key counters from the runtime/serving/net tiers must be non-zero,
# and the replication ledger must agree across the two processes
# (follower entries_applied == primary entries_shipped > 0, after one
# uploaded ADD).
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

# Traffic for every tier to account for: quickstart learns a deadlock
# signature and saves it to its history file; the client daemon uploads
# it to the primary as an ADD (which the shipper carries to the
# follower), then makes one real GET poll.
./build/quickstart > "${OBS_DIR}/quickstart.log"
./build/communix_client --host 127.0.0.1 --port "${OBS_PPORT}" \
    --repo "${OBS_DIR}/repo.db" --once \
    --upload /tmp/communix_quickstart_history.bin

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
# The replication ledger: wait (bounded) for the shipper to carry the
# ADD over, then require that something was shipped and all of it
# applied.
for _ in $(seq 1 100); do
  SHIPPED="$(obs_get "${OBS_PPORT}" cluster.shipper.entries_shipped)"
  APPLIED="$(obs_get "${OBS_FPORT}" server.repl_entries_applied)"
  [[ "${SHIPPED:-0}" -gt 0 && "${SHIPPED}" == "${APPLIED}" ]] && break
  sleep 0.1
done
if [[ -z "${SHIPPED}" || "${SHIPPED}" -eq 0 ]]; then
  echo "ci: primary shipped no entries (the uploaded ADD never left it)"
  exit 1
fi
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

# Benchmark build guard: the repository benchmark (perfbench/) compiles
# src/ itself, so an API change that breaks it fails here. Its own tests,
# then a short untraced run of every workload, each of which must report
# "correct": true (their checks read runtime, server and replication
# counters, so a lost or misrouted counter fails here too).
python3 perfbench/run.py --test
for WORKLOAD in fleet_sync app_locks immunity; do
  BENCH_JSON="$(python3 perfbench/run.py --workload "${WORKLOAD}" --seed 1 \
      --seconds 5 --trace 0 | tail -n 1)"
  if ! printf '%s' "${BENCH_JSON}" | python3 -c \
      'import json, sys; sys.exit(0 if json.load(sys.stdin).get("correct") is True else 1)'; then
    echo "ci: perfbench ${WORKLOAD} smoke not correct: ${BENCH_JSON}"
    exit 1
  fi
done
echo "ci: perfbench smoke passed (benchmark tests, 5 s fleet_sync, app_locks and immunity runs correct)"

./build/fig2_server_throughput --smoke --compare --replicas=2 --groups=2 \
    --json=BENCH_fig2.json
./build/table2_dos_overhead --smoke --json=BENCH_overhead.json
echo "ci: wrote $(pwd)/BENCH_fig2.json and $(pwd)/BENCH_overhead.json"
