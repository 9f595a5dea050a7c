#!/usr/bin/env bash
# Security-suite smoke test, used by CI and `make smoke-security`:
#
#   1. build leakd and start it against a temp store;
#   2. submit a tiny attack sweep (kind:"attack" cells — prime+probe
#      scenario under drowsy and gated-Vss) over HTTP and wait for it;
#   3. assert the channel metrics separate the techniques: drowsy must
#      leak strictly more than gated-Vss on the smoke scenario (the
#      paper's state-preserving distinction, measured as information);
#   4. resubmit the identical sweep and require 100% store hits
#      (zero re-execution) with bit-identical stored cells;
#   5. run `leakbench -attack -remote` against the daemon and require
#      the same metric values the local store carries;
#   6. SIGTERM the daemon and require a clean graceful drain.
#
# Needs curl and jq. Override the port with LEAKD_PORT.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${LEAKD_PORT:-8093}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
LEAKD_PID=""
cleanup() {
    [ -n "$LEAKD_PID" ] && kill "$LEAKD_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/leakd" ./cmd/leakd
go build -o "$TMP/leakbench" ./cmd/leakbench
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
  {"kind":"attack","scenario":"smoke","l2_latency":11,"technique":"none","interval":0},
  {"kind":"attack","scenario":"smoke","l2_latency":11,"technique":"drowsy","interval":2048},
  {"kind":"attack","scenario":"smoke","l2_latency":11,"technique":"gated-vss","interval":2048}]}'

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

cell_leak() { # $1 = sweep status JSON, $2 = technique
    local hash
    hash=$(echo "$1" | jq -r --arg t "$2" '.cells[] | select(.technique == $t) | .hash')
    curl -fsS "$BASE/v1/cells/$hash" | jq '.value.min_entropy_leak_bits'
}

echo "== cold attack sweep (must execute all three cells) =="
COLD=$(submit_and_wait)
echo "$COLD" | jq '{id, state, executed, store_hits, failed}'
[ "$(echo "$COLD" | jq .total)" = 3 ] || { echo "expected 3 cells"; exit 1; }
[ "$(echo "$COLD" | jq .failed)" = 0 ] || { echo "attack cells failed"; exit 1; }
[ "$(echo "$COLD" | jq .executed)" = 3 ] || { echo "cold sweep did not execute its cells"; exit 1; }

echo "== channel metrics separate the techniques =="
DROWSY_LEAK=$(cell_leak "$COLD" drowsy)
GATED_LEAK=$(cell_leak "$COLD" gated-vss)
echo "drowsy leak: ${DROWSY_LEAK} bits, gated-vss leak: ${GATED_LEAK} bits"
jq -n --argjson d "$DROWSY_LEAK" --argjson g "$GATED_LEAK" 'if $d > $g then empty else error("drowsy does not leak more than gated") end' \
    || { echo "state-preserving distinction lost: drowsy=${DROWSY_LEAK} gated=${GATED_LEAK}"; exit 1; }

echo "== warm resubmit (must be 100% store hits, zero execution) =="
WARM=$(submit_and_wait)
echo "$WARM" | jq '{id, state, executed, store_hits}'
[ "$(echo "$WARM" | jq .store_hits)" = 3 ] || { echo "warm resubmit missed the store"; exit 1; }
[ "$(echo "$WARM" | jq .executed)" = 0 ] || { echo "warm resubmit re-executed"; exit 1; }

echo "== attack counters are on /metrics =="
METRICS=$(curl -fsS "$BASE/metrics")
for m in attack_runs_total attack_trials_total channel_estimates_total; do
    echo "$METRICS" | grep -q "^$m " || { echo "/metrics missing $m"; exit 1; }
done
[ "$(echo "$METRICS" | awk '$1 == "attack_runs_total" {print $2}')" -ge 3 ] \
    || { echo "attack_runs_total did not count the sweep"; exit 1; }

echo "== leakbench -attack -remote matches the stored cells =="
"$TMP/leakbench" -attack -scenario smoke -attack-intervals 2048 \
    -remote "$BASE" -csv >"$TMP/frontier.csv" 2>"$TMP/leakbench.log" \
    || { cat "$TMP/leakbench.log"; exit 1; }
cat "$TMP/frontier.csv"
REMOTE_DROWSY=$(awk -F, '$1 == "drowsy" {print $3}' "$TMP/frontier.csv")
jq -n --argjson a "$REMOTE_DROWSY" --argjson b "$DROWSY_LEAK" 'if ($a - $b)*($a - $b) < 1e-18 then empty else error("mismatch") end' \
    || { echo "leakbench -remote leak ${REMOTE_DROWSY} != daemon cell ${DROWSY_LEAK}"; exit 1; }

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

echo "security smoke OK"
