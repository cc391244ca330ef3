#!/usr/bin/env bash
# Smoke test for the compile server: build the daemon and client, boot
# the daemon, fire two identical schedule requests, and assert that the
# second is served entirely from the scheduled-block cache (no list-
# scheduler runs), cross-checked against the /metrics counters.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SMOKE_PORT:-18923}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
SERVED_PID=""
DAEMON_PIDS=""

cleanup() {
  for pid in $SERVED_PID $DAEMON_PIDS; do
    if kill -0 "$pid" 2>/dev/null; then
      kill -TERM "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() { echo "smoke: FAIL: $*" >&2; exit 1; }

# A schedule request carrying only the retired "filter" selector must get
# a 400 that names the field, not the default policy.
expect_filter_rejected() {
  local code
  code=$(curl -s -o "$TMP/filter.json" -w '%{http_code}' -H 'Content-Type: application/json' \
    -d '{"workload":"compress","filter":"LS"}' "$1/v1/schedule")
  [ "$code" = 400 ] && grep -q 'unknown field \\"filter\\"' "$TMP/filter.json" \
    || fail "filter-only request to $1: HTTP $code: $(cat "$TMP/filter.json")"
}

echo "smoke: building schedserved + schedctl"
go build -o "$TMP/schedserved" ./cmd/schedserved
go build -o "$TMP/schedctl" ./cmd/schedctl

echo "smoke: starting schedserved on $ADDR"
"$TMP/schedserved" -addr "$ADDR" 2>"$TMP/served.log" &
SERVED_PID=$!

for i in $(seq 1 50); do
  if "$TMP/schedctl" -addr "$BASE" health >/dev/null 2>&1; then break; fi
  kill -0 "$SERVED_PID" 2>/dev/null || { cat "$TMP/served.log" >&2; fail "daemon died"; }
  sleep 0.2
  [ "$i" = 50 ] && fail "daemon did not become healthy"
done

echo "smoke: first schedule request (cold cache)"
"$TMP/schedctl" -addr "$BASE" schedule -workload compress -policy LS >"$TMP/r1.json"
grep -q '"cache_misses": [1-9]' "$TMP/r1.json" \
  || fail "first request reported no cache misses: $(cat "$TMP/r1.json")"

echo "smoke: second identical request (must be fully cached)"
"$TMP/schedctl" -addr "$BASE" schedule -workload compress -policy LS >"$TMP/r2.json"
grep -q '"cache_misses": 0' "$TMP/r2.json" \
  || fail "second request was not fully cached: $(cat "$TMP/r2.json")"
grep -q '"cache_hits": 0' "$TMP/r2.json" \
  && fail "second request reported zero cache hits: $(cat "$TMP/r2.json")"

key1=$(grep -o '"program_key": "[0-9a-f]*"' "$TMP/r1.json")
key2=$(grep -o '"program_key": "[0-9a-f]*"' "$TMP/r2.json")
[ -n "$key1" ] && [ "$key1" = "$key2" ] \
  || fail "program fingerprints differ between identical requests: $key1 vs $key2"

echo "smoke: checking /metrics counters"
"$TMP/schedctl" -addr "$BASE" metrics -raw >"$TMP/m1.txt"
runs1=$(awk '/^schedserved_scheduler_runs_total /{print $2}' "$TMP/m1.txt")
[ -n "$runs1" ] || fail "scheduler_runs_total missing from /metrics"

echo "smoke: third identical request (the first replay of the recorded pass)"
"$TMP/schedctl" -addr "$BASE" schedule -workload compress -policy LS >"$TMP/r2b.json"
grep -q '"cache_misses": 0' "$TMP/r2b.json" \
  || fail "the replayed request reported cache misses: $(cat "$TMP/r2b.json")"
for field in blocks scheduled changed cost_before cost_after program_key; do
  want=$(grep -o "\"$field\": [^,]*" "$TMP/r2.json")
  got=$(grep -o "\"$field\": [^,]*" "$TMP/r2b.json")
  [ -n "$want" ] && [ "$want" = "$got" ] \
    || fail "the replayed request reports $field '$got', the second request '$want'"
done
"$TMP/schedctl" -addr "$BASE" metrics -raw >"$TMP/m2.txt"
runs2=$(awk '/^schedserved_scheduler_runs_total /{print $2}' "$TMP/m2.txt")
[ "$runs1" = "$runs2" ] \
  || fail "scheduler ran on a warm request (runs $runs1 -> $runs2)"
grep -q '^codecache_hits_total [1-9]' "$TMP/m2.txt" \
  || fail "codecache_hits_total not positive"

echo "smoke: traced request round-trips its ID and feeds the phase histograms"
"$TMP/schedctl" -addr "$BASE" trace -workload compress -policy LS -id smoke-trace-1 >"$TMP/tr1.txt" \
  || fail "trace request failed: $(cat "$TMP/tr1.txt")"
grep -q '^trace smoke-trace-1 ' "$TMP/tr1.txt" \
  || fail "X-Sched-Trace ID did not round-trip: $(cat "$TMP/tr1.txt")"
grep -q '  compile ' "$TMP/tr1.txt" \
  || fail "trace breakdown has no compile span: $(cat "$TMP/tr1.txt")"
"$TMP/schedctl" -addr "$BASE" metrics -raw | grep -q 'schedserved_phase_ns_bucket{phase="compile",le="+Inf"} [1-9]' \
  || fail "schedserved_phase_ns histogram saw no compile samples"

echo "smoke: scalar1 target request (separate cache, cold)"
"$TMP/schedctl" -addr "$BASE" schedule -workload compress -policy LS -target scalar1 >"$TMP/r3.json"
grep -q '"target": "scalar1"' "$TMP/r3.json" \
  || fail "scalar1 request not labelled with its target: $(cat "$TMP/r3.json")"
grep -q '"cache_misses": [1-9]' "$TMP/r3.json" \
  || fail "scalar1 request hit the mpc7410 cache: $(cat "$TMP/r3.json")"
key3=$(grep -o '"program_key": "[0-9a-f]*"' "$TMP/r3.json")
[ -n "$key3" ] && [ "$key3" != "$key1" ] \
  || fail "scalar1 program fingerprint collides with mpc7410: $key3"
"$TMP/schedctl" -addr "$BASE" metrics -raw | grep -q 'codecache_target_entries{target="scalar1"} [1-9]' \
  || fail "per-target cache metrics missing scalar1 entries"

echo "smoke: unknown target is rejected"
if "$TMP/schedctl" -addr "$BASE" schedule -workload compress -target z80 >"$TMP/r4.json" 2>"$TMP/r4.err"; then
  fail "unknown target z80 was accepted: $(cat "$TMP/r4.json")"
fi
grep -q 'unknown target' "$TMP/r4.err" \
  || fail "unknown-target rejection lacks a useful error: $(cat "$TMP/r4.err")"

echo "smoke: the retired filter field is rejected"
expect_filter_rejected "$BASE"

echo "smoke: joltrun on the scalar1 target"
go run ./cmd/joltrun -workload linpack -policy ls -timed -target scalar1 >"$TMP/jolt_scalar1.txt"
go run ./cmd/joltrun -workload linpack -policy ls -timed >"$TMP/jolt_default.txt"
ret_s1=$(grep -o 'ret=[0-9-]*' "$TMP/jolt_scalar1.txt" | head -1)
ret_def=$(grep -o 'ret=[0-9-]*' "$TMP/jolt_default.txt" | head -1)
[ -n "$ret_s1" ] && [ "$ret_s1" = "$ret_def" ] \
  || fail "joltrun checksum differs across targets: $ret_s1 vs $ret_def"
cyc_s1=$(grep -o 'in [0-9]* cycles' "$TMP/jolt_scalar1.txt" | grep -o '[0-9]*')
cyc_def=$(grep -o 'in [0-9]* cycles' "$TMP/jolt_default.txt" | grep -o '[0-9]*')
[ -n "$cyc_s1" ] && [ -n "$cyc_def" ] && [ "$cyc_s1" -ge "$cyc_def" ] \
  || fail "single-issue scalar1 ran faster than dual-issue default ($cyc_s1 < $cyc_def cycles)"

echo "smoke: graceful shutdown"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
grep -q 'drained, bye' "$TMP/served.log" || fail "daemon did not drain cleanly"
SERVED_PID=""

# --- Online learning: loadgen → retrain → activate → rollback, with the
# server staying up (continued 200s) across every hot-swap.
ADDR2="127.0.0.1:${SMOKE_ONLINE_PORT:-18924}"
BASE2="http://$ADDR2"

echo "smoke: starting schedserved -online on $ADDR2"
"$TMP/schedserved" -addr "$ADDR2" -online -online-min 1 2>"$TMP/served2.log" &
SERVED_PID=$!

for i in $(seq 1 50); do
  if "$TMP/schedctl" -addr "$BASE2" health >/dev/null 2>&1; then break; fi
  kill -0 "$SERVED_PID" 2>/dev/null || { cat "$TMP/served2.log" >&2; fail "online daemon died"; }
  sleep 0.2
  [ "$i" = 50 ] && fail "online daemon did not become healthy"
done

echo "smoke: loadgen against the boot filter"
"$TMP/schedctl" -addr "$BASE2" loadgen -workload compress -n 40 -c 4 >"$TMP/lg1.txt"
grep -q 'failed 0' "$TMP/lg1.txt" || fail "loadgen saw failures: $(cat "$TMP/lg1.txt")"
grep -q 'filter mix:.*v1 ' "$TMP/lg1.txt" \
  || fail "loadgen mix does not show boot version v1: $(cat "$TMP/lg1.txt")"

echo "smoke: retrain on the observed traffic"
"$TMP/schedctl" -addr "$BASE2" retrain -target mpc7410 >"$TMP/rt.txt" \
  || fail "retrain failed: $(cat "$TMP/rt.txt")"
grep -q 'skipped' "$TMP/rt.txt" && fail "retrain skipped (no samples): $(cat "$TMP/rt.txt")"

"$TMP/schedctl" -addr "$BASE2" filters list >"$TMP/fl.txt"
nvers=$(grep '^target mpc7410:' "$TMP/fl.txt" | grep -o '[0-9]* versions' | grep -o '[0-9]*')
[ -n "$nvers" ] && [ "$nvers" -ge 2 ] \
  || fail "no candidate registered after retrain: $(cat "$TMP/fl.txt")"

echo "smoke: activating v$nvers and asserting continued 200s"
"$TMP/schedctl" -addr "$BASE2" filters activate -v "$nvers" >"$TMP/act.txt" \
  || fail "activate failed: $(cat "$TMP/act.txt")"
"$TMP/schedctl" -addr "$BASE2" loadgen -workload compress -n 40 -c 4 >"$TMP/lg2.txt"
grep -q 'failed 0' "$TMP/lg2.txt" \
  || fail "requests failed after hot-swap: $(cat "$TMP/lg2.txt")"
grep -q "filter mix:.*v$nvers " "$TMP/lg2.txt" \
  || fail "traffic not served by activated v$nvers: $(cat "$TMP/lg2.txt")"

echo "smoke: rollback restores the previous filter"
"$TMP/schedctl" -addr "$BASE2" filters rollback >"$TMP/rb.txt" \
  || fail "rollback failed: $(cat "$TMP/rb.txt")"
"$TMP/schedctl" -addr "$BASE2" health >/dev/null || fail "server unhealthy after rollback"
"$TMP/schedctl" -addr "$BASE2" metrics -raw | grep -q '^online_rollbacks_total 1' \
  || fail "rollback not counted in /metrics"

echo "smoke: online daemon graceful shutdown"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID" 2>/dev/null || true
grep -q 'drained, bye' "$TMP/served2.log" || fail "online daemon did not drain cleanly"
SERVED_PID=""

# --- Cluster: a schedgate fronting two -online backends. Routing is
# consistent (one workload → one node), killing a backend mid-traffic
# loses zero requests, and a broadcast retrain + activate converges both
# nodes on the same filter version.
ADDR_A="127.0.0.1:${SMOKE_NODE_A_PORT:-18925}"
ADDR_B="127.0.0.1:${SMOKE_NODE_B_PORT:-18926}"
GATE_ADDR="127.0.0.1:${SMOKE_GATE_PORT:-18927}"
GBASE="http://$GATE_ADDR"

echo "smoke: building schedgate"
go build -o "$TMP/schedgate" ./cmd/schedgate

echo "smoke: starting two -online backends and the gateway"
"$TMP/schedserved" -addr "$ADDR_A" -node na -online -online-min 1 2>"$TMP/na.log" &
NODE_A_PID=$!
"$TMP/schedserved" -addr "$ADDR_B" -node nb -online -online-min 1 2>"$TMP/nb.log" &
NODE_B_PID=$!
DAEMON_PIDS="$NODE_A_PID $NODE_B_PID"

for base in "http://$ADDR_A" "http://$ADDR_B"; do
  for i in $(seq 1 50); do
    if "$TMP/schedctl" -addr "$base" health >/dev/null 2>&1; then break; fi
    sleep 0.2
    [ "$i" = 50 ] && fail "backend $base did not become healthy"
  done
done

"$TMP/schedgate" -addr "$GATE_ADDR" -backends "na=http://$ADDR_A,nb=http://$ADDR_B" \
  -check-every 100ms 2>"$TMP/gate.log" &
GATE_PID=$!
DAEMON_PIDS="$DAEMON_PIDS $GATE_PID"

for i in $(seq 1 50); do
  if "$TMP/schedctl" -addr "$GBASE" health >/dev/null 2>&1; then break; fi
  kill -0 "$GATE_PID" 2>/dev/null || { cat "$TMP/gate.log" >&2; fail "gateway died"; }
  sleep 0.2
  [ "$i" = 50 ] && fail "gateway did not become healthy"
done

echo "smoke: routed loadgen through the gateway"
"$TMP/schedctl" -addr "$GBASE" loadgen -workload compress -n 30 -c 4 >"$TMP/glg1.txt"
grep -q 'failed 0' "$TMP/glg1.txt" || fail "gateway loadgen saw failures: $(cat "$TMP/glg1.txt")"
mixline=$(grep 'node mix:' "$TMP/glg1.txt") || fail "no node mix in gateway loadgen: $(cat "$TMP/glg1.txt")"
[ "$(grep -o '×' <<<"$mixline" | wc -l)" = 1 ] \
  || fail "one workload spread across nodes — routing not consistent: $mixline"
primary=$(sed -n 's/^loadgen: node mix: \(n[ab]\) .*/\1/p' "$TMP/glg1.txt")
[ -n "$primary" ] || fail "could not identify compress's primary node: $mixline"
echo "smoke: compress routes to $primary"

echo "smoke: trace round-trip through the gateway"
"$TMP/schedctl" -addr "$GBASE" trace -workload compress -policy LS -id smoke-gw-trace >"$TMP/gtr.txt" \
  || fail "gateway trace request failed: $(cat "$TMP/gtr.txt")"
grep -q '^trace smoke-gw-trace ' "$TMP/gtr.txt" \
  || fail "trace ID did not survive the gateway hop: $(cat "$TMP/gtr.txt")"
grep -q '  route ' "$TMP/gtr.txt" \
  || fail "gateway did not prepend its route span: $(cat "$TMP/gtr.txt")"
grep -q '  compile ' "$TMP/gtr.txt" \
  || fail "backend spans did not survive the gateway relay: $(cat "$TMP/gtr.txt")"
"$TMP/schedctl" -addr "$GBASE" metrics -raw | grep -q 'schedgate_phase_ns_bucket{phase="route",le="+Inf"} [1-9]' \
  || fail "schedgate_phase_ns histogram saw no route samples"

echo "smoke: the retired filter field is rejected through the gateway"
expect_filter_rejected "$GBASE"

echo "smoke: seeding both backends and waiting for measurement"
for base in "http://$ADDR_A" "http://$ADDR_B"; do
  "$TMP/schedctl" -addr "$base" schedule -workload compress -policy default >/dev/null 2>&1
  "$TMP/schedctl" -addr "$base" schedule -workload db -policy default >/dev/null 2>&1
  # Sample measurement is asynchronous; retraining before the queue
  # drains would see an empty reservoir.
  for i in $(seq 1 100); do
    "$TMP/schedctl" -addr "$base" metrics -raw >"$TMP/om.txt"
    enq=$(awk '/^online_blocks_enqueued_total /{print $2}' "$TMP/om.txt")
    meas=$(awk '/^online_samples_measured_total /{print $2}' "$TMP/om.txt")
    if [ -n "$enq" ] && [ "$enq" -gt 0 ] && [ "$meas" -ge "$enq" ]; then break; fi
    sleep 0.1
    [ "$i" = 100 ] && fail "$base measurement queue never drained ($meas/$enq)"
  done
done

echo "smoke: broadcast retrain + activate through the gateway"
"$TMP/schedctl" -addr "$GBASE" retrain >"$TMP/crt.txt" \
  || fail "cluster retrain failed: $(cat "$TMP/crt.txt")"
grep -q 'cluster retrain: 2 ok, 0 failed' "$TMP/crt.txt" \
  || fail "retrain did not reach both nodes: $(cat "$TMP/crt.txt")"
"$TMP/schedctl" -addr "$GBASE" filters activate -v 2 >"$TMP/cact.txt" \
  || fail "cluster activate failed: $(cat "$TMP/cact.txt")"
grep -q 'cluster activate: 2 ok, 0 failed' "$TMP/cact.txt" \
  || fail "activate did not reach both nodes: $(cat "$TMP/cact.txt")"

"$TMP/schedctl" -addr "$GBASE" cluster >"$TMP/cl.txt"
grep -q 'cluster: 2/2 members healthy' "$TMP/cl.txt" \
  || fail "cluster report wrong member count: $(cat "$TMP/cl.txt")"
grep -q 'target mpc7410: converged' "$TMP/cl.txt" \
  || fail "nodes did not converge after broadcast activate: $(cat "$TMP/cl.txt")"
grep -q 'na=v2 nb=v2' "$TMP/cl.txt" \
  || fail "nodes not both at v2: $(cat "$TMP/cl.txt")"

echo "smoke: killing $primary mid-traffic"
if [ "$primary" = na ]; then KILL_PID=$NODE_A_PID; survivor=nb; else KILL_PID=$NODE_B_PID; survivor=na; fi
kill -KILL "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
"$TMP/schedctl" -addr "$GBASE" loadgen -workload compress -n 30 -c 4 >"$TMP/glg2.txt"
grep -q 'failed 0' "$TMP/glg2.txt" \
  || fail "requests lost after killing $primary: $(cat "$TMP/glg2.txt")"
grep -q "node mix: $survivor ×30" "$TMP/glg2.txt" \
  || fail "traffic did not fail over to $survivor: $(cat "$TMP/glg2.txt")"
"$TMP/schedctl" -addr "$GBASE" cluster >"$TMP/cl2.txt"
grep -q 'cluster: 1/2 members healthy' "$TMP/cl2.txt" \
  || fail "dead node still counted healthy: $(cat "$TMP/cl2.txt")"

echo "smoke: gateway + survivor graceful shutdown"
kill -TERM "$GATE_PID"
wait "$GATE_PID" 2>/dev/null || true
grep -q 'drained, bye' "$TMP/gate.log" || fail "gateway did not drain cleanly"
if [ "$survivor" = na ]; then SURV_PID=$NODE_A_PID; SURV_LOG="$TMP/na.log"; else SURV_PID=$NODE_B_PID; SURV_LOG="$TMP/nb.log"; fi
kill -TERM "$SURV_PID"
wait "$SURV_PID" 2>/dev/null || true
grep -q 'drained, bye' "$SURV_LOG" || fail "surviving backend did not drain cleanly"
DAEMON_PIDS=""

echo "smoke: OK (cache warm at $runs2 scheduler runs; retrain/activate/rollback hot-swapped; cluster routed, converged, and survived a node kill with zero failures)"
