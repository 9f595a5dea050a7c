#!/usr/bin/env bash
# Cluster smoke test, used by CI and `make smoke-cluster`:
#
#   1. build leakd, start three workers and one coordinator
#      (load-aware sharding over the workers, federated store);
#   2. submit a multi-group sweep to the coordinator and, while it is
#      running, kill -9 one worker — the coordinator must re-shard the
#      dead worker's cells onto the survivors and finish the sweep with
#      zero failed cells (no acknowledged cell is ever lost);
#   3. verify every cell is durable in the coordinator's own store by
#      content address;
#   4. restart the killed worker against an EMPTY store with -peer
#      pointing at the coordinator, submit a cell that was computed
#      elsewhere in the cluster directly to that worker, and require a
#      federated store hit (zero simulation);
#   5. SIGTERM everything and require clean drains.
#
# Needs curl and jq. Override the port base with LEAKD_PORT (takes
# PORT..PORT+3).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${LEAKD_PORT:-8100}"
W1=$((PORT)) W2=$((PORT + 1)) W3=$((PORT + 2)) CP=$((PORT + 3))
COORD="http://127.0.0.1:${CP}"
TMP="$(mktemp -d)"
PIDS=()
cleanup() {
    for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/leakd" ./cmd/leakd

# start_worker leaves the new pid in LAST_PID (no command substitution:
# the PIDS bookkeeping must run in this shell for the cleanup trap).
start_worker() { # port store logfile [extra flags...]
    local port=$1 store=$2 log=$3
    shift 3
    "$TMP/leakd" -addr "127.0.0.1:${port}" -store "$store" \
        -n 60000 -warmup 20000 "$@" >"$log" 2>&1 &
    LAST_PID=$!
    PIDS+=("$LAST_PID")
}

wait_healthy() { # url log
    local url=$1 log=$2
    for _ in $(seq 1 100); do
        curl -fsS "$url/healthz" >/dev/null 2>&1 && return 0
        sleep 0.1
    done
    echo "daemon at $url never became healthy" >&2
    cat "$log" >&2
    return 1
}

start_worker "$W1" "$TMP/store-w1" "$TMP/w1.log"; W1_PID=$LAST_PID
start_worker "$W2" "$TMP/store-w2" "$TMP/w2.log"; W2_PID=$LAST_PID
start_worker "$W3" "$TMP/store-w3" "$TMP/w3.log"; W3_PID=$LAST_PID

"$TMP/leakd" -coordinator \
    -cluster "http://127.0.0.1:${W1},http://127.0.0.1:${W2},http://127.0.0.1:${W3}" \
    -addr "127.0.0.1:${CP}" -store "$TMP/store-coord" \
    -n 60000 -warmup 20000 >"$TMP/coord.log" 2>&1 &
COORD_PID=$!
PIDS+=("$COORD_PID")

wait_healthy "http://127.0.0.1:${W1}" "$TMP/w1.log"
wait_healthy "http://127.0.0.1:${W2}" "$TMP/w2.log"
wait_healthy "http://127.0.0.1:${W3}" "$TMP/w3.log"
wait_healthy "$COORD" "$TMP/coord.log"

# Six (bench, L2) shard groups so every worker gets work, with enough
# instructions per cell that the sweep is still running when we kill a
# worker.
REQ='{"instructions":400000,"warmup":50000,
  "benchmarks":["gzip","gcc","mcf","vpr","parser","twolf"],
  "techniques":["drowsy","gated-vss"],
  "intervals":[2048,8192],
  "l2_latencies":[11]}'

echo "== sharded sweep with a worker killed mid-flight =="
ID=$(curl -fsS -X POST "$COORD/v1/sweeps" \
    -H 'Content-Type: application/json' -d "$REQ" | jq -r .id)

# Wait for the sweep to leave the queue, then murder worker 2.
for _ in $(seq 1 100); do
    STATE=$(curl -fsS "$COORD/v1/sweeps/$ID" | jq -r .state)
    [ "$STATE" != queued ] && break
    sleep 0.05
done
sleep 0.2
kill -9 "$W2_PID"
echo "killed worker 2 (pid $W2_PID) while sweep $ID was $STATE"

for _ in $(seq 1 600); do
    STATE=$(curl -fsS "$COORD/v1/sweeps/$ID" | jq -r .state)
    case "$STATE" in completed|failed|canceled) break ;; esac
    sleep 0.1
done
FINAL=$(curl -fsS "$COORD/v1/sweeps/$ID")
echo "$FINAL" | jq '{id, state, total, completed, executed, store_hits, failed, degraded}'
[ "$(echo "$FINAL" | jq -r .state)" = completed ] || {
    echo "sweep ended in state $(echo "$FINAL" | jq -r .state), not completed" >&2
    cat "$TMP/coord.log" >&2
    exit 1
}
[ "$(echo "$FINAL" | jq .failed)" = 0 ] || { echo "cells were lost to the worker death"; exit 1; }
[ "$(echo "$FINAL" | jq .total)" = 24 ] || { echo "expected 24 cells"; exit 1; }
[ "$(echo "$FINAL" | jq .completed)" = 24 ] || { echo "not every cell completed"; exit 1; }

echo "== every cell durable in the coordinator store by content address =="
for HASH in $(echo "$FINAL" | jq -r '.cells[].hash'); do
    curl -fsS "$COORD/v1/cells/$HASH" | jq -e '.value' >/dev/null \
        || { echo "cell $HASH not fetchable from the coordinator store"; exit 1; }
done

echo "== restarted worker serves cluster-computed cells via federation =="
# Fresh, empty store: any hit must come through -peer.
start_worker "$W2" "$TMP/store-w2-reborn" "$TMP/w2-reborn.log" -peer "$COORD"; W2_PID=$LAST_PID
wait_healthy "http://127.0.0.1:${W2}" "$TMP/w2-reborn.log"

FED_REQ='{"instructions":400000,"warmup":50000,"cells":[
  {"bench":"gzip","l2_latency":11,"technique":"drowsy","interval":2048}]}'
FID=$(curl -fsS -X POST "http://127.0.0.1:${W2}/v1/sweeps" \
    -H 'Content-Type: application/json' -d "$FED_REQ" | jq -r .id)
for _ in $(seq 1 300); do
    FSTATE=$(curl -fsS "http://127.0.0.1:${W2}/v1/sweeps/$FID" | jq -r .state)
    case "$FSTATE" in completed|failed|canceled) break ;; esac
    sleep 0.1
done
FED=$(curl -fsS "http://127.0.0.1:${W2}/v1/sweeps/$FID")
echo "$FED" | jq '{id, state, executed, store_hits}'
[ "$(echo "$FED" | jq -r .state)" = completed ] || { echo "federated sweep did not complete"; cat "$TMP/w2-reborn.log"; exit 1; }
[ "$(echo "$FED" | jq .store_hits)" = 1 ] || { echo "restarted worker missed the federated store"; exit 1; }
[ "$(echo "$FED" | jq .executed)" = 0 ] || { echo "restarted worker re-simulated a cluster-computed cell"; exit 1; }

echo "== SIGTERM drains cleanly =="
kill -TERM "$COORD_PID" "$W1_PID" "$W2_PID" "$W3_PID" 2>/dev/null || true
for p in "$COORD_PID" "$W1_PID" "$W2_PID" "$W3_PID"; do
    for _ in $(seq 1 150); do
        kill -0 "$p" 2>/dev/null || break
        sleep 0.1
    done
    kill -0 "$p" 2>/dev/null && { echo "pid $p still running after SIGTERM"; exit 1; }
done
grep -q "drained" "$TMP/coord.log" || { echo "no drain line in coordinator log"; cat "$TMP/coord.log"; exit 1; }

echo "cluster smoke OK"
