#!/usr/bin/env sh
# Offline tier-1 verification: build, test, and a small parallel smoke run
# of the orchestration harness (cold cache, 2 workers, then warm re-run).
# No network access required; the workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo clippy (all targets, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test --workspace -q

echo "== harness smoke run (cold, 2 jobs) =="
SMOKE_CACHE="$(mktemp -d)"
SMOKE_JOURNAL="$(mktemp -d)"
SMOKE_EVENTS="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS"' EXIT
cargo run -q --release -p sparten-harness -- \
  run --filter fig7 --jobs 2 --cache-dir "$SMOKE_CACHE" \
  --journal-dir "$SMOKE_JOURNAL" --no-artifacts --events-dir "$SMOKE_EVENTS"
# The run wrote a structured event log that the reader parses end-to-end
# (the events subcommand exits non-zero on any malformed JSONL line).
test -n "$(find "$SMOKE_EVENTS" -name '*.jsonl')"
cargo run -q --release -p sparten-harness -- events \
  --events-dir "$SMOKE_EVENTS" | grep -q '"kind":"run.done"'

echo "== harness smoke run (warm, 2 jobs) =="
cargo run -q --release -p sparten-harness -- \
  run --filter fig7 --jobs 2 --cache-dir "$SMOKE_CACHE" \
  --journal-dir "$SMOKE_JOURNAL" --no-artifacts --events-dir "$SMOKE_EVENTS"

echo "== harness telemetry smoke (Chrome trace + report) =="
SMOKE_TEL="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS" "$SMOKE_TEL"' EXIT
cargo run -q --release -p sparten-harness -- \
  run --filter fig10_alexnet --jobs 2 --cache-dir "$SMOKE_CACHE" \
  --journal-dir "$SMOKE_JOURNAL" --no-artifacts --telemetry-dir "$SMOKE_TEL" \
  --events-dir "$SMOKE_EVENTS"
test -s "$SMOKE_TEL/fig10_alexnet_breakdown.json"
cargo run -q --release -p sparten-harness -- report --telemetry-dir "$SMOKE_TEL"
# The machine-readable form carries the same jobs plus p50/p95/p99.
cargo run -q --release -p sparten-harness -- report --telemetry-dir "$SMOKE_TEL" \
  --json | grep -q '"histograms"'

echo "== interrupted-run smoke (crash -> resume -> byte-identical, fsck clean) =="
SMOKE_CRASH="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS" "$SMOKE_TEL" "$SMOKE_CRASH"' EXIT
HARNESS_BIN="$PWD/target/release/sparten-harness"
mkdir -p "$SMOKE_CRASH/interrupted" "$SMOKE_CRASH/clean"
# Crash at the worst legal instant (point journaled, not yet cached):
# the run must exit non-zero and leave a dangling journal behind.
( cd "$SMOKE_CRASH/interrupted" && \
  ! "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 \
      --abort-after 2 >/dev/null 2>&1 )
# fsck sees the crashed tree as defective (the resumable journal).
( cd "$SMOKE_CRASH/interrupted" && ! "$HARNESS_BIN" fsck >/dev/null )
# Resume replays the two journaled points and finishes the run.
( cd "$SMOKE_CRASH/interrupted" && \
  "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 --resume \
    > resume.out )
grep -q "resumed: 2 completed point(s)" "$SMOKE_CRASH/interrupted/resume.out"
# The recovered artifacts are byte-identical to an uninterrupted run's.
( cd "$SMOKE_CRASH/clean" && \
  "$HARNESS_BIN" run --filter fig7_alexnet_speedup --jobs 2 >/dev/null )
# Event logs are diagnostics, not results: per-run timings differ.
diff -r -x cache -x journal -x events \
  "$SMOKE_CRASH/interrupted/results" "$SMOKE_CRASH/clean/results"
# Both trees audit clean afterwards.
( cd "$SMOKE_CRASH/interrupted" && "$HARNESS_BIN" fsck >/dev/null )
( cd "$SMOKE_CRASH/clean" && "$HARNESS_BIN" fsck >/dev/null )

echo "== dse smoke (quick sweep: determinism, frontier, crash -> resume) =="
SMOKE_DSE="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS" "$SMOKE_TEL" "$SMOKE_CRASH" "$SMOKE_DSE"' EXIT
mkdir -p "$SMOKE_DSE/a" "$SMOKE_DSE/b" "$SMOKE_DSE/crash"
# Two cold sweeps of the 16,200-config quick grid must agree byte for byte.
( cd "$SMOKE_DSE/a" && "$HARNESS_BIN" dse --quick --jobs 2 >/dev/null )
( cd "$SMOKE_DSE/b" && "$HARNESS_BIN" dse --quick --jobs 2 >/dev/null )
diff "$SMOKE_DSE/a/results/dse/dse-quick_frontier.json" \
     "$SMOKE_DSE/b/results/dse/dse-quick_frontier.json"
diff "$SMOKE_DSE/a/results/dse/dse-quick_points.json" \
     "$SMOKE_DSE/b/results/dse/dse-quick_points.json"
# The Pareto frontier is non-empty and carries both objectives.
grep -q '"throughput_macs_per_cycle"' "$SMOKE_DSE/a/results/dse/dse-quick_frontier.json"
grep -q '"energy_per_mac_pj"' "$SMOKE_DSE/a/results/dse/dse-quick_frontier.json"
# Kill the sweep after 10 computed batches, resume it, and demand the
# recovered artifacts match an uninterrupted run's exactly.
( cd "$SMOKE_DSE/crash" && \
  ! "$HARNESS_BIN" dse --quick --jobs 2 --abort-after 10 >/dev/null 2>&1 )
( cd "$SMOKE_DSE/crash" && \
  "$HARNESS_BIN" dse --quick --jobs 2 --resume > resume.out )
grep -q "resumed: 10 completed point(s)" "$SMOKE_DSE/crash/resume.out"
diff -r -x cache -x journal -x events \
  "$SMOKE_DSE/crash/results" "$SMOKE_DSE/a/results"

echo "== analytical-model oracle (release: full golden catalog) =="
cargo test -q --release -p sparten-model

echo "== work-row oracle (release: full differential grid) =="
cargo test -q --release -p sparten-sim --features exhaustive-tests --test work_row_tests

echo "== schedule-lane oracle (release: full differential grid) =="
cargo test -q --release -p sparten-sim --features exhaustive-tests --test schedule_lane_tests

echo "== layer-prep oracle (release: full differential grid) =="
cargo test -q --release -p sparten-sim --features exhaustive-tests --test layer_prep_tests

echo "== bench smoke (quick registry, pinned schema, kernel speedups) =="
# Write to a scratch path so the smoke never clobbers the committed
# BENCH_sim.json baseline; --check-schema parses the artifact back.
SMOKE_BENCH="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS" "$SMOKE_TEL" "$SMOKE_CRASH" "$SMOKE_DSE" "$SMOKE_BENCH"' EXIT
cargo run -q --release -p sparten-harness -- bench --quick --check-schema \
  --out "$SMOKE_BENCH/BENCH_sim.json"
test -s "$SMOKE_BENCH/BENCH_sim.json"

echo "== unknown-flag handling (exit 2 + subcommand usage) =="
# A bad flag after a valid subcommand must name the flag, print that
# subcommand's usage, and exit 2 (not 1, which is reserved for bad values).
set +e
"$PWD/target/release/sparten-harness" run --no-such-flag \
  > "$SMOKE_BENCH/badflag.out" 2>&1
BADFLAG_STATUS=$?
set -e
test "$BADFLAG_STATUS" -eq 2
grep -q -- "--no-such-flag" "$SMOKE_BENCH/badflag.out"
grep -q "sparten-harness run" "$SMOKE_BENCH/badflag.out"

echo "== serve smoke (ephemeral port, streamed run, metrics, SIGTERM drain) =="
SMOKE_SERVE="$(mktemp -d)"
trap 'rm -rf "$SMOKE_CACHE" "$SMOKE_JOURNAL" "$SMOKE_EVENTS" "$SMOKE_TEL" "$SMOKE_CRASH" "$SMOKE_DSE" "$SMOKE_BENCH" "$SMOKE_SERVE"' EXIT
"$PWD/target/release/sparten-harness" serve --addr 127.0.0.1:0 \
  --port-file "$SMOKE_SERVE/port" --jobs 2 \
  --cache-dir "$SMOKE_SERVE/cache" --journal-dir "$SMOKE_SERVE/journal" \
  --events-dir "$SMOKE_SERVE/events" \
  --no-artifacts > "$SMOKE_SERVE/serve.out" 2>&1 &
SERVE_PID=$!
# The daemon writes its bound address atomically once the socket is live.
for _ in $(seq 1 100); do
  test -s "$SMOKE_SERVE/port" && break
  sleep 0.1
done
test -s "$SMOKE_SERVE/port"
SERVE_ADDR="$(cat "$SMOKE_SERVE/port")"
curl -sf "http://$SERVE_ADDR/healthz" | grep -q ok
# A submitted job streams NDJSON progress and ends with a done event.
curl -sf -X POST "http://$SERVE_ADDR/run?job=table1_design_goals" \
  | tee "$SMOKE_SERVE/run.ndjson" | grep -q '"event":"done"'
grep -q '"status":"ok"' "$SMOKE_SERVE/run.ndjson"
# A repeat of the same job is answered from the cache, off the executor.
curl -sf -X POST "http://$SERVE_ADDR/run?job=table1_design_goals" \
  | grep -q '"role":"cache"'
# Default /metrics stays the line-oriented text report.
curl -sf "http://$SERVE_ADDR/metrics" | grep -q "serve/exec.runs"
# Content negotiation: the Prometheus exposition is well-formed (promlint
# re-validates TYPE lines, sample syntax, and bucket monotonicity) and
# carries the build-info series.
curl -sf -H 'Accept: text/plain; version=0.0.4' "http://$SERVE_ADDR/metrics" \
  > "$SMOKE_SERVE/metrics.prom"
grep -q '^# TYPE ' "$SMOKE_SERVE/metrics.prom"
grep -q 'sparten_build_info{' "$SMOKE_SERVE/metrics.prom"
"$PWD/target/release/sparten-harness" promlint --file "$SMOKE_SERVE/metrics.prom"
# The trace export is one Chrome trace of every request's causal chain.
curl -sf "http://$SERVE_ADDR/trace" | grep -q '"traceEvents"'
# The accepted event named the request's trace id; remember it for the
# post-drain event-log check.
TRACE_HEX="$(grep -o '"trace":"[0-9a-f]*"' "$SMOKE_SERVE/run.ndjson" | head -1 | cut -d'"' -f4)"
test -n "$TRACE_HEX"
# SIGTERM drains: in-flight work finishes and the exit code is 75.
kill -TERM "$SERVE_PID"
set +e
wait "$SERVE_PID"
SERVE_STATUS=$?
set -e
test "$SERVE_STATUS" -eq 75
grep -q "drained" "$SMOKE_SERVE/serve.out"
# The drain seals every journal: no dangling .jsonl survives.
test -z "$(find "$SMOKE_SERVE/journal" -name '*.jsonl' 2>/dev/null)"
# The drain flushed the buffered event log, every line parses, and the
# executed run's events carry the trace id the client saw.
test -n "$(find "$SMOKE_SERVE/events" -name '*.jsonl')"
"$PWD/target/release/sparten-harness" events \
  --events-dir "$SMOKE_SERVE/events" > "$SMOKE_SERVE/events.out"
test -s "$SMOKE_SERVE/events.out"
"$PWD/target/release/sparten-harness" events \
  --events-dir "$SMOKE_SERVE/events" --trace "$TRACE_HEX" \
  | grep -q "\"trace\":\"$TRACE_HEX\""

echo "== fault-campaign smoke (seeded, zero silently-wrong) =="
# The faults command exits non-zero on any silently-wrong or crashed
# trial; grep the coverage footer as a belt-and-braces assertion.
cargo run -q --release -p sparten-harness -- faults --seed 1 --quick \
  | tee /dev/stderr | grep -q "0 silently-wrong, 0 crashed"

echo "== chaos-campaign smoke (hostile sockets, zero invariant violations) =="
# One seeded trial per adversary class (torn body, slow-loris,
# mid-stream disconnect, deadline storm, queue flood) against a real
# server; exits non-zero on any leaked permit, unsealed journal, stuck
# session, or hung thread.
cargo run -q --release -p sparten-harness -- chaos --seed 1 --quick \
  | tee /dev/stderr | grep -q "0 violated, 0 crashed"

echo "== disk-fault smoke (power-cut oracle, zero recovery violations) =="
# One seeded trial per filesystem lie (ENOSPC, short write, fsync
# failure, rename failure, bit rot): run on a fault-injecting VFS, cut
# the power at a seeded op-log prefix, recover with resume + fsck
# --repair, and byte-compare against a clean run. Exits non-zero on any
# recovery violation; the counters line proves faults were injected.
DISKCHAOS_OUT="$(cargo run -q --release -p sparten-harness -- diskchaos --seed 1 --quick)"
echo "$DISKCHAOS_OUT" | grep -q "0 violated, 0 crashed"
echo "$DISKCHAOS_OUT" | grep -q "disk.injected="
echo "$DISKCHAOS_OUT" | grep -q "disk.enospc="
echo "$DISKCHAOS_OUT" | grep -q "recovery.repaired="
echo "$DISKCHAOS_OUT"

echo "verify: OK"
