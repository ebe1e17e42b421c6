#!/usr/bin/env bash
# Full correctness gate: tier-1 verify, the llmpq-vet lint suite, the race
# lane, the dist stress lane, a one-iteration benchmark lane, and a ~70 s
# fuzz smoke (quantizer, serve decode, journal replay, DP kernel).
# Mirrors `make verify-all`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build =="
go build ./...
echo "== gofmt =="; test -z "$(gofmt -l .)"
echo "== go vet =="
go vet ./...
echo "== llmpq-vet (domain analyzers + SARIF smoke) =="
sarif=$(mktemp)
go run ./cmd/llmpq-vet -sarif "$sarif" ./...
python3 - "$sarif" <<'EOF'
import json, sys
log = json.load(open(sys.argv[1]))
assert log["version"] == "2.1.0", f"bad SARIF version {log['version']}"
rules = log["runs"][0]["tool"]["driver"]["rules"]
assert len(rules) >= 5, f"only {len(rules)} SARIF rules, want >= 5"
EOF
rm -f "$sarif"
echo "== tests =="
go test ./...
echo "== perfbench tests (separate module) =="
(cd perfbench && go test ./...)
echo "== race lane (make verify-race) =="
make verify-race
echo "== dist stress lane (make stress-dist: interleaving tests x10 at -cpu 2,4) =="
make stress-dist
echo "== benchmark smoke (make bench-smoke: every internal benchmark once) =="
make bench-smoke
echo "== observability smoke (llmpq-bench -metrics-out/-trace-out) =="
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
go run ./cmd/llmpq-bench -metrics-out "$obsdir/metrics.prom" -trace-out "$obsdir/trace.json"
grep -q 'llmpq_engine_stage_busy_seconds_bucket' "$obsdir/metrics.prom"
grep -q 'llmpq_solver_time_to_plan_seconds' "$obsdir/metrics.prom"
python3 -m json.tool "$obsdir/trace.json" > /dev/null 2>&1 || {
    echo "verify.sh: trace.json is not valid JSON" >&2; exit 1; }
echo "== parallel planner smoke (serial vs -parallel 4 plans must match) =="
go run ./cmd/llmpq-algo -cluster 9 -model-name opt-13b -parallel 1 -o "$obsdir/serial.json" > /dev/null
go run ./cmd/llmpq-algo -cluster 9 -model-name opt-13b -parallel 4 -o "$obsdir/parallel.json" > /dev/null
diff "$obsdir/serial.json" "$obsdir/parallel.json" || {
    echo "verify.sh: parallel planner diverged from the serial plan" >&2; exit 1; }
# The heuristic reads benefit sums without the DP's prefix table.
go run ./cmd/llmpq-algo -cluster 4 -method heuristic -parallel 1 -o "$obsdir/heur-serial.json" > /dev/null
go run ./cmd/llmpq-algo -cluster 4 -method heuristic -parallel 4 -o "$obsdir/heur-parallel.json" > /dev/null
diff "$obsdir/heur-serial.json" "$obsdir/heur-parallel.json" || {
    echo "verify.sh: parallel heuristic planner diverged from the serial plan" >&2; exit 1; }
echo "== chaos smoke (permanent device loss must be reproducible byte-for-byte) =="
go build -o "$obsdir/llmpq-bench" ./cmd/llmpq-bench
mkdir -p "$obsdir/chaos1" "$obsdir/chaos2"
(cd "$obsdir/chaos1" && "$obsdir/llmpq-bench" -chaos-profile perm-loss -chaos-seed 1 \
    -metrics-out metrics.prom -trace-out trace.json > stdout.txt)
(cd "$obsdir/chaos2" && "$obsdir/llmpq-bench" -chaos-profile perm-loss -chaos-seed 1 \
    -metrics-out metrics.prom -trace-out trace.json > stdout.txt)
for f in metrics.prom trace.json stdout.txt; do
    diff "$obsdir/chaos1/$f" "$obsdir/chaos2/$f" || {
        echo "verify.sh: chaos run is not deterministic ($f differs)" >&2; exit 1; }
done
grep -Eq 'llmpq_failover_replans_total [1-9]' "$obsdir/chaos1/metrics.prom" || {
    echo "verify.sh: chaos smoke never replanned (llmpq_failover_replans_total < 1)" >&2; exit 1; }
grep -q 'llmpq_chaos_device_lost_total' "$obsdir/chaos1/metrics.prom"
echo "== distributed control-plane smoke (coordinator + 2 workers over loopback) =="
go build -o "$obsdir/llmpq-dist" ./cmd/llmpq-dist
go run ./cmd/llmpq-algo -cluster 3 -model-name opt-13b -global-bz 8 -s 128 -n 8 \
    -o "$obsdir/dist-strat.json" > /dev/null
"$obsdir/llmpq-dist" -strat-file "$obsdir/dist-strat.json" > "$obsdir/dist-single.txt"
distaddr="127.0.0.1:$((20000 + RANDOM % 20000))"
"$obsdir/llmpq-dist" -role coordinator -strat-file "$obsdir/dist-strat.json" \
    -listen "$distaddr" -workers 2 > "$obsdir/dist-coord.txt" &
coord=$!
"$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" > /dev/null &
w0=$!
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" > /dev/null &
w1=$!
wait "$coord"
for w in "$w0" "$w1"; do
    wait "$w" || { echo "verify.sh: a worker of the clean run exited nonzero" >&2; exit 1; }
done
diff "$obsdir/dist-single.txt" "$obsdir/dist-coord.txt" || {
    echo "verify.sh: multi-process run diverged from the single-process run" >&2; exit 1; }
echo "== distributed failover smoke (SIGKILL a worker mid-decode, expect replan + token conservation) =="
clean_tokens=$(sed -n 's/.*(\([0-9]*\) tokens).*/\1/p' "$obsdir/dist-single.txt")
"$obsdir/llmpq-dist" -role coordinator -strat-file "$obsdir/dist-strat.json" \
    -listen "$distaddr" -workers 2 -heartbeat 50ms -lease 400ms \
    -metrics-out "$obsdir/dist-kill.prom" > "$obsdir/dist-kill.txt" &
coord=$!
# The holds pace the run to ~3 s on loopback, so the kill at 1.5 s lands
# mid-decode. The two workers evaluate each round at once, so a 40 ms hold
# gives the pacing a 20 ms hold gave when they took turns.
"$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" -hold 40ms > /dev/null &
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" -hold 40ms > /dev/null &
victim=$!
sleep 1.5
kill -9 "$victim"
wait "$coord"
wait || true
grep -Eq 'llmpq_failover_replans_total [1-9]' "$obsdir/dist-kill.prom" || {
    echo "verify.sh: killed worker never triggered a replan" >&2; exit 1; }
kill_tokens=$(sed -n 's/^total *\([0-9]*\) tokens.*/\1/p' "$obsdir/dist-kill.txt")
[ "$kill_tokens" = "$clean_tokens" ] || {
    echo "verify.sh: failover lost tokens (clean $clean_tokens, after kill ${kill_tokens:-none})" >&2; exit 1; }
echo "== replan warm-start smoke (deterministic worker death; warm and cold replans must byte-match) =="
# -fail-after pins the loss to an evaluation count, so the sim-time loss
# point — and therefore the degraded plan and every sim metric — is a
# pure function of the strategy. The only allowed warm/cold divergence is
# the llmpq_solver_cache_* counter pair itself.
for mode in warm cold; do
    cacheflag=true
    [ "$mode" = cold ] && cacheflag=false
    mkdir -p "$obsdir/replan-$mode"
    (cd "$obsdir/replan-$mode" && "$obsdir/llmpq-dist" -role coordinator \
        -strat-file "$obsdir/dist-strat.json" -listen "$distaddr" -workers 2 \
        -heartbeat 50ms -lease 400ms -solve-cache="$cacheflag" \
        -replan-out replan.json -metrics-out metrics.prom > stdout.txt) &
    coord=$!
    "$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" > /dev/null &
    "$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" -fail-after 20 > /dev/null &
    wait "$coord"
    wait || true   # the fail-after worker exits nonzero by design
done
for f in replan.json stdout.txt; do
    diff "$obsdir/replan-warm/$f" "$obsdir/replan-cold/$f" || {
        echo "verify.sh: warm-start replan diverged from the cold solve ($f differs)" >&2; exit 1; }
done
diff <(grep -v 'llmpq_solver_' "$obsdir/replan-warm/metrics.prom") \
     <(grep -v 'llmpq_solver_' "$obsdir/replan-cold/metrics.prom") || {
    echo "verify.sh: replan sim metrics differ beyond the solver-cache counters" >&2; exit 1; }
grep -Eq 'llmpq_solver_cache_hits_total [1-9]' "$obsdir/replan-warm/metrics.prom" || {
    echo "verify.sh: warm replan never hit the solve cache" >&2; exit 1; }
if grep -q 'llmpq_solver_cache' "$obsdir/replan-cold/metrics.prom"; then
    echo "verify.sh: -solve-cache=false still exported cache counters" >&2; exit 1
fi
echo "== heal smoke (SIGKILL a worker, restart it with -rejoin, expect capacity-restoring replan) =="
# A longer decode gives the full loss→lease-expiry→rejoin→dwell→restore
# sequence room to land mid-run. Clean single-process run fixes the token
# target the healed run must conserve exactly.
go run ./cmd/llmpq-algo -cluster 3 -model-name opt-13b -global-bz 8 -s 128 -n 48 \
    -o "$obsdir/heal-strat.json" > /dev/null
"$obsdir/llmpq-dist" -strat-file "$obsdir/heal-strat.json" > "$obsdir/heal-single.txt"
heal_clean=$(sed -n 's/.*(\([0-9]*\) tokens).*/\1/p' "$obsdir/heal-single.txt")
"$obsdir/llmpq-dist" -role coordinator -strat-file "$obsdir/heal-strat.json" \
    -listen "$distaddr" -workers 2 -heartbeat 50ms -lease 400ms \
    -rejoin -heal-dwell 200ms \
    -metrics-out "$obsdir/heal.prom" -ctrl-metrics-out "$obsdir/heal-ctrl.prom" \
    > "$obsdir/heal.txt" &
coord=$!
"$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" -hold 20ms > /dev/null &
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" -hold 20ms > /dev/null &
victim=$!
sleep 0.9
kill -9 "$victim"
# Restart the dead worker under its old name: -rejoin retries through the
# still-live lease, re-admits after expiry, and the dwell-stable lease
# triggers the restore.
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" -hold 20ms -rejoin > /dev/null &
wait "$coord"
wait || true   # the SIGKILLed incarnation reaps nonzero by design
grep -Eq 'llmpq_failover_restore_total [1-9]' "$obsdir/heal.prom" || {
    echo "verify.sh: rejoined worker never triggered a capacity-restoring replan" >&2; exit 1; }
grep -Eq 'llmpq_heal_rejoins_total [1-9]' "$obsdir/heal-ctrl.prom" || {
    echo "verify.sh: coordinator never counted the rejoin handshake" >&2; exit 1; }
grep -q 'worker heal' "$obsdir/heal.txt" || {
    echo "verify.sh: healed run never reported the restore" >&2; exit 1; }
heal_tokens=$(sed -n 's/^total *\([0-9]*\) tokens.*/\1/p' "$obsdir/heal.txt")
[ "$heal_tokens" = "$heal_clean" ] || {
    echo "verify.sh: heal lost tokens (clean $heal_clean, after heal ${heal_tokens:-none})" >&2; exit 1; }
echo "== flap smoke (seeded device flap must heal and be reproducible byte-for-byte) =="
for run in 1 2; do
    mkdir -p "$obsdir/flap$run"
    (cd "$obsdir/flap$run" && "$obsdir/llmpq-bench" -chaos-profile flap -chaos-seed 1 \
        -metrics-out metrics.prom -trace-out trace.json > stdout.txt)
done
for f in metrics.prom trace.json stdout.txt; do
    diff "$obsdir/flap1/$f" "$obsdir/flap2/$f" || {
        echo "verify.sh: flap run is not deterministic ($f differs)" >&2; exit 1; }
done
grep -Eq 'llmpq_failover_restore_total [1-9]' "$obsdir/flap1/metrics.prom" || {
    echo "verify.sh: flap profile never restored capacity" >&2; exit 1; }
grep -Eq 'llmpq_heal_device_returns_total [1-9]' "$obsdir/flap1/metrics.prom" || {
    echo "verify.sh: flap profile counted no device return" >&2; exit 1; }
echo "== distributed chaos smoke (seeded conn-drop must be reproducible byte-for-byte) =="
for run in 1 2; do
    mkdir -p "$obsdir/dchaos$run"
    (cd "$obsdir/dchaos$run" && "$obsdir/llmpq-dist" -role coordinator \
        -strat-file "$obsdir/dist-strat.json" -listen "$distaddr" -workers 2 \
        -chaos-profile conn-drop -chaos-seed 1 \
        -metrics-out metrics.prom -trace-out trace.json > stdout.txt) &
    coord=$!
    "$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" > /dev/null &
    w0=$!
    "$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" > /dev/null &
    w1=$!
    wait "$coord"
    # A conn drop must heal into a clean exit: a worker stranded by it
    # would redial the finished coordinator until its retry budget ran out.
    for w in "$w0" "$w1"; do
        wait "$w" || { echo "verify.sh: a worker of the conn-drop run exited nonzero" >&2; exit 1; }
    done
done
for f in metrics.prom trace.json stdout.txt; do
    diff "$obsdir/dchaos1/$f" "$obsdir/dchaos2/$f" || {
        echo "verify.sh: distributed chaos run is not deterministic ($f differs)" >&2; exit 1; }
done
grep -q 'llmpq_dist_injected_conn_drops_total 1' "$obsdir/dchaos1/metrics.prom"
echo "== crash recovery smoke (SIGKILL the coordinator mid-decode; -recover must byte-match) =="
# Reference: a journaled run that never crashes, capturing every artifact
# the recovered run must reproduce byte-for-byte. The stage-call total it
# exports picks the crash point for the second run. Its ctrl metrics pin
# the journal's group commit: only barrier records are fsynced.
mkdir -p "$obsdir/rec-ref" "$obsdir/rec-crash"
(cd "$obsdir/rec-ref" && "$obsdir/llmpq-dist" -role coordinator \
    -strat-file "$obsdir/dist-strat.json" -listen "$distaddr" -workers 2 \
    -journal-dir jnl -metrics-out metrics.prom -trace-out trace.json \
    -ctrl-metrics-out ctrl.prom > stdout.txt) &
coord=$!
"$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" > /dev/null &
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" > /dev/null &
wait "$coord"
wait
grep -q 'llmpq_journal_sync_seconds_count 4$' "$obsdir/rec-ref/ctrl.prom" || {
    echo "verify.sh: the reference run should fsync 4 times (plan, two members, done)" >&2; exit 1; }
calls=$(awk '/^llmpq_dist_stage_calls_total/ { print int($2) }' "$obsdir/rec-ref/metrics.prom")
[ "${calls:-0}" -gt 4 ] || {
    echo "verify.sh: reference run exported no stage-call total" >&2; exit 1; }
# Crash run: the coordinator SIGKILLs itself two evaluations before the
# end — deep in decode, with round watermarks already in the journal.
# The workers outlive the crash on their dial-retry budget.
(cd "$obsdir/rec-crash" && "$obsdir/llmpq-dist" -role coordinator \
    -strat-file "$obsdir/dist-strat.json" -listen "$distaddr" -workers 2 \
    -journal-dir jnl -coord-fail-after "$((calls - 2))" > stdout.txt) &
coord=$!
"$obsdir/llmpq-dist" -role worker -name w0 -connect "$distaddr" > /dev/null &
w0=$!
"$obsdir/llmpq-dist" -role worker -name w1 -connect "$distaddr" > /dev/null &
w1=$!
if wait "$coord"; then
    echo "verify.sh: -coord-fail-after coordinator exited cleanly instead of dying" >&2; exit 1
fi
# Restart on the same address with -recover: the journal replays, both
# workers reattach under their rejoin tokens, stdout.txt is overwritten
# by the recovered (complete) run.
(cd "$obsdir/rec-crash" && "$obsdir/llmpq-dist" -role coordinator \
    -strat-file "$obsdir/dist-strat.json" -listen "$distaddr" -workers 2 \
    -journal-dir jnl -recover -metrics-out metrics.prom -trace-out trace.json \
    -ctrl-metrics-out ctrl.prom > stdout.txt)
wait "$w0" "$w1"
for f in metrics.prom trace.json stdout.txt; do
    diff "$obsdir/rec-ref/$f" "$obsdir/rec-crash/$f" || {
        echo "verify.sh: recovered run diverged from the uninterrupted run ($f differs)" >&2; exit 1; }
done
grep -Eq 'llmpq_journal_replayed_records [1-9]' "$obsdir/rec-crash/ctrl.prom" || {
    echo "verify.sh: recovery replayed no journal records" >&2; exit 1; }
grep -Eq 'llmpq_dist_reattach_total 2' "$obsdir/rec-crash/ctrl.prom" || {
    echo "verify.sh: both workers should reattach under their rejoin tokens" >&2; exit 1; }
echo "== serve smoke (HTTP front door: completion + metrics, sim registry byte-diffable) =="
go build -o "$obsdir/llmpq-serve" ./cmd/llmpq-serve
serveaddr="127.0.0.1:$((20000 + RANDOM % 20000))"
for run in 1 2; do
    mkdir -p "$obsdir/serve$run"
    "$obsdir/llmpq-serve" -listen "$serveaddr" -seed 1 -max-new 32 \
        -sim-metrics-out "$obsdir/serve$run/sim.prom" > "$obsdir/serve$run/stdout.txt" &
    spid=$!
    for _ in $(seq 1 100); do
        curl -sf "http://$serveaddr/healthz" > /dev/null 2>&1 && break
        sleep 0.1
    done
    curl -sf -X POST "http://$serveaddr/v1/completions" \
        -d '{"prompt": "partition the layers across devices", "max_tokens": 8}' \
        > "$obsdir/serve$run/completion.json"
    curl -sf "http://$serveaddr/metrics" > "$obsdir/serve$run/metrics.prom"
    kill -TERM "$spid"
    wait "$spid"
done
python3 -m json.tool "$obsdir/serve1/completion.json" > /dev/null 2>&1 || {
    echo "verify.sh: completion response is not valid JSON" >&2; exit 1; }
grep -q '"finish_reason": *"length"' "$obsdir/serve1/completion.json" || {
    echo "verify.sh: completion did not finish on its max_tokens length" >&2; exit 1; }
grep -q 'llmpq_serve_http_requests_total' "$obsdir/serve1/metrics.prom" || {
    echo "verify.sh: ctrl registry missing wall-clock HTTP families" >&2; exit 1; }
grep -q 'llmpq_online_completed_total' "$obsdir/serve1/metrics.prom" || {
    echo "verify.sh: /metrics missing the sim-side llmpq_online_* families" >&2; exit 1; }
diff "$obsdir/serve1/sim.prom" "$obsdir/serve2/sim.prom" || {
    echo "verify.sh: serve sim registry is not deterministic across identical runs" >&2; exit 1; }
# The llmpq metadata block is sim-side state (id and created are wall
# clock), so it must match across the two identically seeded runs.
for run in 1 2; do
    python3 -c 'import json, sys; print(json.dumps(json.load(open(sys.argv[1]))["llmpq"], sort_keys=True))' \
        "$obsdir/serve$run/completion.json" > "$obsdir/serve$run/llmpq.json" || {
        echo "verify.sh: completion response carries no llmpq block" >&2; exit 1; }
    grep '^llmpq-serve: drained:' "$obsdir/serve$run/stdout.txt" > "$obsdir/serve$run/drained.txt" || {
        echo "verify.sh: llmpq-serve printed no drain report" >&2; exit 1; }
done
diff "$obsdir/serve1/llmpq.json" "$obsdir/serve2/llmpq.json" || {
    echo "verify.sh: completion llmpq block differs across identical runs" >&2; exit 1; }
diff "$obsdir/serve1/drained.txt" "$obsdir/serve2/drained.txt" || {
    echo "verify.sh: llmpq-serve drain report differs across identical runs" >&2; exit 1; }
grep -q 'llmpq_online_completed_total' "$obsdir/serve1/sim.prom"
if grep -q 'llmpq_serve_' "$obsdir/serve1/sim.prom"; then
    echo "verify.sh: wall-clock llmpq_serve_* families leaked into the sim artifact" >&2; exit 1
fi
echo "== fuzz smoke (Theorem-1 round-trip + group-wise pack + completion decode + journal replay + DP kernel, ~70s) =="
go test -run='^$' -fuzz=FuzzQuantDequantRoundTrip -fuzztime=15s ./internal/quant
go test -run='^$' -fuzz=FuzzGroupwisePack -fuzztime=15s ./internal/quant
go test -run='^$' -fuzz=FuzzCompletionRequest -fuzztime=15s ./internal/serve
go test -run='^$' -fuzz=FuzzJournalReplay -fuzztime=15s ./internal/dist
go test -run='^$' -fuzz=FuzzDPMatchesOracle -fuzztime=10s ./internal/assigner
echo "verify.sh: all lanes green"
