#!/usr/bin/env bash
# Chaos smoke test for leakd, used by CI's chaos-smoke job and `make chaos`:
#
#   1. fault-free reference run: record the sweep's cell results;
#   2. chaos run on a fresh store with the fault plane armed (store syncs
#      failing, handler 5xx) — the sweep must still complete, and every
#      result the daemon acknowledged durably (fetchable by content
#      address) is captured;
#   3. stop the chaos daemon, restart it fault-free on the same store, and
#      kill -9 a sweep that is seen part-done (0 < completed < total, with
#      at least one cell simulated rather than served from the store; it
#      spans more lockstep groups than the daemon has workers), restart —
#      the daemon must come back healthy, no acknowledged result may be
#      lost or corrupted (bit-identical to the fault-free reference), and
#      the interrupted sweep must complete on resubmit, serving at least
#      the cells it had completed from the store;
#   4. GC run with a halved byte budget — the store must shrink.
#
# Needs curl and jq. Override the port with LEAKD_PORT.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${LEAKD_PORT:-8093}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
LEAKD_PID=""
cleanup() {
    [ -n "$LEAKD_PID" ] && kill -9 "$LEAKD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/leakd" ./cmd/leakd

# req METHOD PATH [DATA]: curl with retries, riding out injected 5xx.
req() {
    local method=$1 path=$2 data=${3:-}
    local i out
    for i in $(seq 1 50); do
        if [ -n "$data" ]; then
            out=$(curl -fsS -X "$method" "$BASE$path" -H 'Content-Type: application/json' -d "$data" 2>/dev/null) && { echo "$out"; return 0; }
        else
            out=$(curl -fsS -X "$method" "$BASE$path" 2>/dev/null) && { echo "$out"; return 0; }
        fi
        sleep 0.1
    done
    echo "request $method $path never succeeded" >&2
    return 1
}

start_leakd() { # start_leakd STORE_DIR LOG_FILE [extra flags...]
    local dir=$1 logf=$2
    shift 2
    "$TMP/leakd" -addr "127.0.0.1:${PORT}" -store "$dir" \
        -n 60000 -warmup 20000 "$@" >"$logf" 2>&1 &
    LEAKD_PID=$!
    local i
    for i in $(seq 1 100); do
        curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
        # Under an armed fault plane healthz itself can 5xx; a live process
        # that answers anything is enough to proceed.
        curl -s -o /dev/null "$BASE/healthz" 2>/dev/null && return 0
        kill -0 "$LEAKD_PID" 2>/dev/null || { echo "leakd died on startup"; cat "$logf"; exit 1; }
        sleep 0.1
    done
    echo "leakd never answered"; cat "$logf"; exit 1
}

stop_leakd() { # graceful
    kill -TERM "$LEAKD_PID" 2>/dev/null || true
    local i
    for i in $(seq 1 150); do
        kill -0 "$LEAKD_PID" 2>/dev/null || break
        sleep 0.1
    done
    LEAKD_PID=""
}

REQ='{"cells":[
  {"bench":"gzip","l2_latency":11,"technique":"drowsy","interval":4096},
  {"bench":"gzip","l2_latency":11,"technique":"gated-vss","interval":4096}]}'
# Eleven lockstep groups (one per benchmark) of 13 lanes each.
BIGREQ='{"benchmarks":["gcc","gzip","parser","vortex","gap","perl","twolf","bzip2","vpr","mcf","crafty"],
  "techniques":["drowsy","gated-vss"],"include_baselines":true,
  "intervals":[1024,2048,4096,8192,16384,32768]}'

submit_and_wait() { # submit_and_wait REQUEST -> final sweep JSON
    local body=$1 id state st
    id=$(req POST /v1/sweeps "$body" | jq -r .id)
    state=queued
    for _ in $(seq 1 600); do
        st=$(req GET "/v1/sweeps/$id")
        state=$(echo "$st" | jq -r .state)
        case "$state" in completed|failed|canceled) break ;; esac
        sleep 0.1
    done
    if [ "$state" != completed ]; then
        echo "sweep $id ended in state $state" >&2
        return 1
    fi
    echo "$st"
}

echo "== phase 1: fault-free reference run =="
start_leakd "$TMP/ref-store" "$TMP/ref.log"
REF=$(submit_and_wait "$REQ") || { cat "$TMP/ref.log"; exit 1; }
echo "$REF" | jq -S '[.cells[] | {cell, hash}]' >"$TMP/ref-cells.json"
# Reference values, keyed by content hash.
for h in $(echo "$REF" | jq -r '.cells[].hash'); do
    req GET "/v1/cells/$h" | jq -S .value >"$TMP/ref-$h.json"
done
stop_leakd

echo "== phase 2: chaos run (store sync faults + handler 5xx) =="
start_leakd "$TMP/chaos-store" "$TMP/chaos.log" \
    -faultplane 'store.sync:err:1/10:seed=7,server.handler:5xx:1/8:seed=3' \
    -sweep-timeout 120s
CHAOS=$(submit_and_wait "$REQ") || { cat "$TMP/chaos.log"; exit 1; }
echo "$CHAOS" | jq '{id, state, executed, degraded}'
[ "$(echo "$CHAOS" | jq .failed)" != 0 ] && [ "$(echo "$CHAOS" | jq .failed)" != null ] \
    && { echo "cells failed under chaos (must degrade, not fail)"; exit 1; }

# Acknowledged-durable set: cells fetchable by content address right now.
# (A degraded sweep may legitimately have failed to persist some.)
: >"$TMP/acked.txt"
for h in $(echo "$CHAOS" | jq -r '.cells[].hash'); do
    if v=$(req GET "/v1/cells/$h" 2>/dev/null | jq -S .value); then
        echo "$h" >>"$TMP/acked.txt"
        echo "$v" >"$TMP/acked-$h.json"
    fi
done
ACKED=$(wc -l <"$TMP/acked.txt")
echo "durably acknowledged cells: $ACKED"

echo "== phase 3: kill -9 a part-done sweep, restart, recover =="
# The chaos daemon's store.sync faults may legitimately drop cells, so the
# kill hits a fault-free daemon on the same store. One worker runs the
# sweep's groups one after another.
stop_leakd
start_leakd "$TMP/chaos-store" "$TMP/big.log" -workers 1
BIGID=$(req POST /v1/sweeps "$BIGREQ" | jq -r .id)
SEEN=""
for _ in $(seq 1 1000); do
    st=$(req GET "/v1/sweeps/$BIGID")
    n=$(echo "$st" | jq -r .completed)
    total=$(echo "$st" | jq -r .total)
    # Phase 2's cells are store hits from the start; wait for a group.
    if [ "$(echo "$st" | jq -r .executed)" -gt 0 ] && [ "$n" -lt "$total" ]; then
        SEEN=$n
        break
    fi
    case "$(echo "$st" | jq -r .state)" in completed|failed|canceled) break ;; esac
    sleep 0.02
done
[ -n "$SEEN" ] || { echo "sweep $BIGID never seen part-done before it ended: $st"; cat "$TMP/big.log"; exit 1; }
kill -9 "$LEAKD_PID"
wait "$LEAKD_PID" 2>/dev/null || true
LEAKD_PID=""
echo "killed the sweep at $SEEN of $total cells completed"

start_leakd "$TMP/chaos-store" "$TMP/recover.log"   # clean restart, no faults
HEALTH=$(req GET /healthz)
STATUS=$(echo "$HEALTH" | jq -r .status)
[ "$STATUS" = ok ] || { echo "restarted daemon unhealthy: $HEALTH"; cat "$TMP/recover.log"; exit 1; }
QUAR=$(echo "$HEALTH" | jq -r '.store_quarantined // 0')
[ "$QUAR" = 0 ] || { echo "kill -9 corrupted $QUAR acknowledged record(s)"; exit 1; }

# Zero loss: every durably acknowledged result survived, bit-identical to
# the fault-free reference.
while read -r h; do
    v=$(req GET "/v1/cells/$h" | jq -S .value) \
        || { echo "acknowledged cell $h lost across kill -9"; exit 1; }
    echo "$v" | diff -q - "$TMP/acked-$h.json" >/dev/null \
        || { echo "acknowledged cell $h changed across kill -9"; exit 1; }
    [ -f "$TMP/ref-$h.json" ] && {
        echo "$v" | diff - "$TMP/ref-$h.json" >/dev/null \
            || { echo "cell $h differs from fault-free reference"; exit 1; }
    }
done <"$TMP/acked.txt"
echo "all $ACKED acknowledged cells intact and bit-identical"

# The interrupted sweep completes on resubmit, resuming from the store:
# every cell it had completed before the kill is a store hit.
BIG=$(submit_and_wait "$BIGREQ") || { cat "$TMP/recover.log"; exit 1; }
echo "$BIG" | jq '{id, state, executed, store_hits, resumed}'
[ "$(echo "$BIG" | jq -r .state)" = completed ] || { echo "interrupted sweep did not recover"; exit 1; }
HITS=$(echo "$BIG" | jq -r .store_hits)
[ "$HITS" -ge "$SEEN" ] || { echo "resubmit served $HITS cells from the store, but $SEEN had completed before the kill"; exit 1; }
stop_leakd

echo "== phase 4: GC reclaims space =="
BYTES=$(cat "$TMP/chaos-store"/seg-*.jsonl | wc -c)
start_leakd "$TMP/chaos-store" "$TMP/gc.log" \
    -store-max-bytes $((BYTES / 2)) -gc-interval 1s
for _ in $(seq 1 30); do
    grep -q "store GC dropped" "$TMP/gc.log" && break
    sleep 0.5
done
grep -q "store GC dropped" "$TMP/gc.log" || { echo "GC never ran"; cat "$TMP/gc.log"; exit 1; }
AFTER=$(cat "$TMP/chaos-store"/seg-*.jsonl | wc -c)
[ "$AFTER" -lt "$BYTES" ] || { echo "GC reclaimed nothing ($BYTES -> $AFTER bytes)"; exit 1; }
echo "GC: $BYTES -> $AFTER bytes"
stop_leakd

echo "chaos smoke OK"
