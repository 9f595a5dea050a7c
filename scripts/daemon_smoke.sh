#!/usr/bin/env bash
# Daemon smoke test, used by CI and `make smoke-daemon`:
#
#   1. build leakd and start it against a temp store;
#   2. submit a two-cell sweep over HTTP and wait for completion;
#   3. resubmit the identical sweep and require 100% store hits
#      (zero simulation) with the cells served by content address;
#   4. SIGTERM the daemon and require a clean graceful drain.
#
# Needs curl and jq. Override the port with LEAKD_PORT.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${LEAKD_PORT:-8091}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
LEAKD_PID=""
cleanup() {
    [ -n "$LEAKD_PID" ] && kill "$LEAKD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/leakd" ./cmd/leakd
"$TMP/leakd" -addr "127.0.0.1:${PORT}" -store "$TMP/store" \
    -n 60000 -warmup 20000 >"$TMP/leakd.log" 2>&1 &
LEAKD_PID=$!

for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$LEAKD_PID" 2>/dev/null || { echo "leakd died on startup"; cat "$TMP/leakd.log"; exit 1; }
    sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null || { echo "leakd never became healthy"; cat "$TMP/leakd.log"; exit 1; }

REQ='{"cells":[
  {"bench":"gzip","l2_latency":11,"technique":"drowsy","interval":4096},
  {"bench":"gzip","l2_latency":11,"technique":"gated-vss","interval":4096}]}'

submit_and_wait() {
    local id state
    id=$(curl -fsS -X POST "$BASE/v1/sweeps" \
        -H 'Content-Type: application/json' -d "$REQ" | jq -r .id)
    state=queued
    for _ in $(seq 1 300); do
        state=$(curl -fsS "$BASE/v1/sweeps/$id" | jq -r .state)
        case "$state" in completed|failed|canceled) break ;; esac
        sleep 0.1
    done
    if [ "$state" != completed ]; then
        echo "sweep $id ended in state $state" >&2
        cat "$TMP/leakd.log" >&2
        exit 1
    fi
    curl -fsS "$BASE/v1/sweeps/$id"
}

echo "== cold sweep (must simulate both cells) =="
COLD=$(submit_and_wait)
echo "$COLD" | jq '{id, state, executed, store_hits}'
[ "$(echo "$COLD" | jq .total)" = 2 ] || { echo "expected 2 cells"; exit 1; }
[ "$(echo "$COLD" | jq .executed)" = 2 ] || { echo "cold sweep did not simulate its cells"; exit 1; }

echo "== SSE event stream replays the harness trace =="
curl -fsS --max-time 20 "$BASE/v1/sweeps/$(echo "$COLD" | jq -r .id)/events" \
    | grep -q "event: run_done" || { echo "no run_done in SSE stream"; exit 1; }

echo "== warm resubmit (must be 100% store hits, zero simulation) =="
WARM=$(submit_and_wait)
echo "$WARM" | jq '{id, state, executed, store_hits}'
[ "$(echo "$WARM" | jq .store_hits)" = 2 ] || { echo "warm resubmit missed the store"; exit 1; }
[ "$(echo "$WARM" | jq .executed)" = 0 ] || { echo "warm resubmit re-simulated"; exit 1; }

HASH=$(echo "$WARM" | jq -r '.cells[0].hash')
curl -fsS "$BASE/v1/cells/$HASH" | jq -e '.value' >/dev/null \
    || { echo "cell $HASH not fetchable by content address"; exit 1; }

echo "== SIGTERM drains cleanly =="
kill -TERM "$LEAKD_PID"
for _ in $(seq 1 150); do
    kill -0 "$LEAKD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$LEAKD_PID" 2>/dev/null; then
    echo "leakd still running after SIGTERM" >&2
    cat "$TMP/leakd.log" >&2
    exit 1
fi
wait "$LEAKD_PID" || { echo "leakd exited non-zero"; cat "$TMP/leakd.log"; exit 1; }
LEAKD_PID=""
grep -q "drained" "$TMP/leakd.log" || { echo "no drain line in leakd log"; cat "$TMP/leakd.log"; exit 1; }

echo "daemon smoke OK"
