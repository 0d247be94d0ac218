#!/usr/bin/env bash
# server_smoke.sh — end-to-end smoke test for lpathd against the testdata
# corpus. Builds the CLI and the server, starts lpathd, waits for /healthz,
# runs known queries through /v1/query and /v1/count, asserts the counts
# match the lpath CLI's answers on the same corpus, sends a concurrent burst
# of distinct limited /v1/query requests and checks their totals the same
# way, requires a 400 for a query nested past the parser's bound and a
# correct answer right after it, provokes 429 shedding, and checks /metrics
# reports the traffic.
# Exits non-zero on any mismatch.
#
# Usage: scripts/server_smoke.sh [port]
set -euo pipefail

cd "$(dirname "$0")/.."
PORT="${1:-18080}"
BASE="http://127.0.0.1:${PORT}"
CORPUS=testdata/smoke.mrg
QUERIES=('//NP' '//VP/VBD-->NN' '//S[//NP[//JJ]]')

BIN=$(mktemp -d)
trap 'kill "${SERVER_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "== building lpath + lpathd"
go build -o "$BIN/lpath" ./cmd/lpath
go build -o "$BIN/lpathd" ./cmd/lpathd

# cli_count QUERY prints the lpath CLI's match count for QUERY on $CORPUS.
cli_count() { "$BIN/lpath" -corpus "$CORPUS" -count "$1" | grep -F "$1: " | awk '{print $(NF-1)}'; }

echo "== expected counts from the lpath CLI"
declare -a WANT
for i in "${!QUERIES[@]}"; do
    q="${QUERIES[$i]}"
    WANT[$i]=$(cli_count "$q")
    [ -n "${WANT[$i]}" ] || { echo "FAIL: could not parse CLI count for $q"; exit 1; }
    echo "   $q -> ${WANT[$i]}"
done

echo "== starting lpathd on :$PORT"
"$BIN/lpathd" -corpus "smoke=$CORPUS" -addr "127.0.0.1:$PORT" -quiet &
SERVER_PID=$!

for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: lpathd exited early"; exit 1; }
    sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || { echo "FAIL: /healthz not ok"; exit 1; }
echo "   healthz ok"

# jq-free JSON field extraction: the response is single-line JSON.
json_int() { sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"; }

echo "== /v1/query and /v1/count vs CLI"
# "count":true: with limit pushdown the server no longer evaluates the full
# result per query request, so the exact total must be asked for explicitly.
for i in "${!QUERIES[@]}"; do
    q="${QUERIES[$i]}"
    body=$(printf '{"query":"%s","limit":3,"count":true}' "$q")

    got=$(curl -fsS -X POST -d "$body" "$BASE/v1/query" | json_int count)
    [ "$got" = "${WANT[$i]}" ] || { echo "FAIL: /v1/query $q: got $got, want ${WANT[$i]}"; exit 1; }

    got=$(curl -fsS -X POST -d "$body" "$BASE/v1/count" | json_int count)
    [ "$got" = "${WANT[$i]}" ] || { echo "FAIL: /v1/count $q: got $got, want ${WANT[$i]}"; exit 1; }
    echo "   $q -> $got (query+count agree with CLI)"
done

echo "== concurrent distinct /v1/query misses vs CLI"
# Every text is new to the result cache, so each request evaluates its own
# limit+1 stream and then its count while the others are in flight.
BURST=('//DT' '//VP' '//S' '//NN' '//VBD' '//JJ' '//IN' '//PP' '//NNS' '//NP//NN' '//VP/VBD' '//S//DT')
declare -a BURST_PIDS
for i in "${!BURST[@]}"; do
    curl -fsS -X POST -d "$(printf '{"query":"%s","limit":2,"count":true}' "${BURST[$i]}")" \
        "$BASE/v1/query" > "$BIN/burst.$i" &
    BURST_PIDS[$i]=$!
done
for i in "${!BURST[@]}"; do
    wait "${BURST_PIDS[$i]}" || { echo "FAIL: burst /v1/query ${BURST[$i]} failed"; exit 1; }
done
for i in "${!BURST[@]}"; do
    q="${BURST[$i]}"
    want=$(cli_count "$q")
    got=$(json_int count < "$BIN/burst.$i")
    [ -n "$want" ] && [ "$got" = "$want" ] || { echo "FAIL: burst /v1/query $q: got $got, want $want"; exit 1; }
    grep -q '"cached":false' "$BIN/burst.$i" || { echo "FAIL: burst /v1/query $q was not a miss"; exit 1; }
done
echo "   ${#BURST[@]} concurrent distinct queries agree with the CLI"

echo "== a query nested past the parser's bound is a 400, and the server goes on"
DEEP="$(printf '//A[%.0s' $(seq 1 10000))//B$(printf ']%.0s' $(seq 1 10000))"
code=$(curl -s -o "$BIN/deep.out" -w '%{http_code}' --max-time 2 -X POST \
    -d "$(printf '{"query":"%s"}' "$DEEP")" "$BASE/v1/count") || true
[ "$code" = 400 ] || { echo "FAIL: ${#DEEP}-byte, 10000-deep query: status $code within 2 s, want 400"; exit 1; }
got=$(curl -fsS -X POST -d "$(printf '{"query":"%s"}' "${QUERIES[0]}")" "$BASE/v1/count" | json_int count)
[ "$got" = "${WANT[0]}" ] || { echo "FAIL: after the deep query, ${QUERIES[0]}: got $got, want ${WANT[0]}"; exit 1; }
echo "   10000-deep query -> 400; ${QUERIES[0]} -> $got"

echo "== limit pushdown: without \"count\" a truncated response reports -1"
resp=$(curl -fsS -X POST -d '{"query":"//_","limit":1}' "$BASE/v1/query")
echo "$resp" | grep -q '"count":-1' || { echo "FAIL: truncated query leaked a count: $resp"; exit 1; }
echo "$resp" | grep -q '"truncated":true' || { echo "FAIL: limit=1 on //_ not truncated: $resp"; exit 1; }
echo "   //_ limit=1 -> truncated, count unknown"

echo "== save-then-serve: snapshot the corpus, serve it, recheck counts"
SNAPSHOT="${LPX_SNAPSHOT:-}"
if [ -z "$SNAPSHOT" ] || [ ! -f "$SNAPSHOT" ]; then
    SNAPSHOT="$BIN/smoke.lpx"
    "$BIN/lpath" -corpus "$CORPUS" -save-index "$SNAPSHOT" -count '//NP' >/dev/null
else
    echo "   using prebuilt snapshot $SNAPSHOT"
fi
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
"$BIN/lpathd" -index "smoke=$SNAPSHOT" -addr "127.0.0.1:$PORT" -quiet &
SERVER_PID=$!
for _ in $(seq 1 50); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: lpathd -index exited early"; exit 1; }
    sleep 0.1
done
for i in "${!QUERIES[@]}"; do
    q="${QUERIES[$i]}"
    got=$(curl -fsS -X POST -d "$(printf '{"query":"%s"}' "$q")" "$BASE/v1/count" | json_int count)
    [ "$got" = "${WANT[$i]}" ] || { echo "FAIL: snapshot-served $q: got $got, want ${WANT[$i]}"; exit 1; }
    echo "   $q -> $got (snapshot agrees with text)"
done

echo "== /v1/explain returns a plan"
curl -fsS -X POST -d '{"query":"//NP"}' "$BASE/v1/explain" | grep -q 'plan:' \
    || { echo "FAIL: /v1/explain lacks a plan"; exit 1; }
echo "   explain ok"

echo "== overload shedding (max-inflight=1, no queue, expensive queries)"
# Restart against a larger synthetic corpus so each query runs long enough
# (~100ms+) for the burst to genuinely overlap the single evaluation slot.
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
"$BIN/lpathd" -gen wsj -scale 0.05 -addr "127.0.0.1:$PORT" -quiet \
    -max-inflight 1 -max-queue -1 -result-cache -1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done

codes=$(for _ in $(seq 1 20); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
        -d '{"query":"//_[//_[//_[//_[//_]]]]"}' "$BASE/v1/count" &
done; wait)
echo "$codes" | grep -q '^200$' || { echo "FAIL: burst: no request served"; exit 1; }
echo "$codes" | grep -q '^429$' || { echo "FAIL: burst: nothing shed with a saturated slot"; exit 1; }
if echo "$codes" | grep -qv -e '^200$' -e '^429$'; then
    echo "FAIL: burst produced unexpected status codes:"; echo "$codes"; exit 1
fi
echo "   burst: $(echo "$codes" | grep -c '^200$') served, $(echo "$codes" | grep -c '^429$') shed"

echo "== /metrics reflects the traffic"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep 'lpathd_requests_total{endpoint="count",code="200"}' \
    | grep -qv ' 0$' || { echo "FAIL: no 200s counted for /v1/count"; exit 1; }
echo "$METRICS" | grep -q 'lpathd_request_duration_seconds_count' \
    || { echo "FAIL: latency histogram missing"; exit 1; }
echo "$METRICS" | grep -q 'lpathd_admission_total{outcome="admitted"}' \
    || { echo "FAIL: admission counters missing"; exit 1; }
if echo "$METRICS" | grep -q '^lpathd_batch_'; then
    echo "FAIL: /metrics still exports a request-batching series"; exit 1
fi
echo "   metrics ok"

echo "PASS: server smoke test"
