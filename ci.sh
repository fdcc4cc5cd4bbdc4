#!/usr/bin/env bash
# Local CI gate: build, lints, full test suite. Run before pushing.
# `./ci.sh scale-smoke` runs only the columnar+LoD scale gate.
set -euo pipefail
cd "$(dirname "$0")"

scale_smoke() {
  echo "==> scale-smoke: columnar+LoD gates, golden LoD transcript replay"
  # The reduced fig_scale run exercises the full pipeline (trace build,
  # memory-ratio assertion, LoD cut tiling) without the timing gates.
  cargo run --quiet --release -p viva-bench --bin fig_scale -- --small > /dev/null
  # Camera renders over the wire are deterministic: the checked-in LoD
  # script (camera-less baseline, identity camera, zoom/pan sweeps, an
  # invalid camera's typed error) must reproduce its golden transcript
  # byte for byte — twice over stdio, once over TCP.
  target/release/viva-server --stdio \
    < tests/data/server_lod.script > /tmp/viva_lod_smoke_1.ndjson
  target/release/viva-server --stdio \
    < tests/data/server_lod.script > /tmp/viva_lod_smoke_2.ndjson
  diff -u tests/data/server_lod.golden /tmp/viva_lod_smoke_1.ndjson
  diff -u /tmp/viva_lod_smoke_1.ndjson /tmp/viva_lod_smoke_2.ndjson
  rm -f /tmp/viva_lod_smoke_tcp.log
  target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
    > /dev/null 2> /tmp/viva_lod_smoke_tcp.log &
  LOD_SRV_PID=$!
  LOD_ADDR=""
  for _ in $(seq 1 200); do
    LOD_ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_lod_smoke_tcp.log)
    [ -n "$LOD_ADDR" ] && break
    sleep 0.05
  done
  test -n "$LOD_ADDR" || { echo "viva-server never announced its address" >&2; kill "$LOD_SRV_PID"; exit 1; }
  target/release/viva-server-client --tcp "$LOD_ADDR" tests/data/server_lod.script \
    > /tmp/viva_lod_smoke_tcp.ndjson
  diff -u tests/data/server_lod.golden /tmp/viva_lod_smoke_tcp.ndjson
  echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$LOD_ADDR" > /dev/null
  wait "$LOD_SRV_PID"
}

if [ "${1:-}" = "scale-smoke" ]; then
  cargo build --quiet --release -p viva-bench -p viva-server
  scale_smoke
  echo "ci: scale-smoke green"
  exit 0
fi

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> smoke: figure harnesses (--small)"
cargo run --quiet --release -p viva-bench --bin fig10_faulttolerance -- --small > /dev/null
# Interactivity smoke: runs the indexed-vs-naive and serial-vs-parallel
# equivalence assertions (panics on any divergence); timings themselves
# are only asserted by the full run.
cargo run --quiet --release -p viva-bench --bin fig_interactivity -- --small > /dev/null

echo "==> server-smoke: stdio replay against the golden transcript"
# The wire protocol is deterministic by construction: piping the
# checked-in session script through a fresh stdio server must reproduce
# the checked-in golden transcript byte for byte — twice, so "it only
# worked because of leftover state" is also ruled out. The server bench
# smoke then exercises the concurrent-session path (throughput timings
# are only asserted by the full run).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  < tests/data/server_session.script > /tmp/viva_server_smoke_1.ndjson
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  < tests/data/server_session.script > /tmp/viva_server_smoke_2.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_1.ndjson
diff -u /tmp/viva_server_smoke_1.ndjson /tmp/viva_server_smoke_2.ndjson

echo "==> server-smoke: TCP replay over the event-driven transport"
# The same script over a real socket against the sharded readiness loop
# must also reproduce the golden transcript byte for byte — the
# transport never changes a byte. The server is then drained with a
# protocol `shutdown`, which must end the process cleanly (all shard
# workers join).
rm -f /tmp/viva_server_smoke_tcp.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 4 \
  > /dev/null 2> /tmp/viva_server_smoke_tcp.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_server_smoke_tcp.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" tests/data/server_session.script \
  > /tmp/viva_server_smoke_tcp.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_tcp.ndjson
echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$ADDR" > /dev/null
wait "$SRV_PID"
cargo run --quiet --release -p viva-bench --bin fig_server -- --small > /dev/null
# The same binary's wire mode: real loopback clients against the poll
# loop (sequential and pipelined pings, idle connections), every reply
# checked; the latency and idle-CPU gates are only asserted by the
# full `--wire` run.
cargo run --quiet --release -p viva-bench --bin fig_server -- --wire --small > /dev/null

scale_smoke

echo "==> obs-smoke: metrics/tracing replays byte-identical, self-trace deterministic"
# Observability must never perturb the protocol: the same script with
# self-profiling enabled must still reproduce the golden transcript
# byte for byte, while the Prometheus-style exposition file materializes
# alongside. The obs bench smoke then verifies the per-command counters
# against the commands actually served (overhead is only asserted by
# the full run).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --metrics-out /tmp/viva_server_smoke_metrics.txt \
  < tests/data/server_session.script > /tmp/viva_server_smoke_obs.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_obs.ndjson
test -s /tmp/viva_server_smoke_metrics.txt
grep -q 'viva_counter{scope="server",name="server.cmd.render"}' /tmp/viva_server_smoke_metrics.txt
# The stats golden pins the reset semantics on the wire: the reset
# response carries the pre-reset snapshot, the follow-up shows zeroed
# counters and histograms with gauges untouched, and the exact
# histogram bucket bounds ride along.
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --metrics-out /tmp/viva_server_smoke_stats_metrics.txt \
  < tests/data/server_stats.script > /tmp/viva_server_smoke_stats.ndjson
diff -u tests/data/server_stats.golden /tmp/viva_server_smoke_stats.ndjson
# Self-trace determinism: the same golden replay with span tracing on
# (fixed seed, sample-everything) still matches the golden transcript,
# two runs export byte-identical CSV (logical ticks, never wall time),
# and the export passes the same strict ingest bar as any real trace.
rm -rf /tmp/viva_selftrace_1 /tmp/viva_selftrace_2
target/release/viva-server --stdio --self-trace /tmp/viva_selftrace_1 \
  --trace-seed 42 --trace-sample 1 \
  < tests/data/server_session.script > /tmp/viva_server_smoke_selftrace_1.ndjson
target/release/viva-server --stdio --self-trace /tmp/viva_selftrace_2 \
  --trace-seed 42 --trace-sample 1 \
  < tests/data/server_session.script > /tmp/viva_server_smoke_selftrace_2.ndjson
diff -u tests/data/server_session.golden /tmp/viva_server_smoke_selftrace_1.ndjson
diff -u /tmp/viva_selftrace_1/selftrace.csv /tmp/viva_selftrace_2/selftrace.csv
target/release/viva-server --check-trace /tmp/viva_selftrace_1/selftrace.csv
cargo run --quiet --release -p viva-bench --bin fig_obs -- --small > /dev/null

echo "==> fuzz-smoke: adversarial ingest corpus, both recovery modes"
# Deterministic and offline: every corpus file plus synthesized
# pathologies (10 MB lines, NaN floods, id collisions) must load
# without panics, with stable error summaries, and render a valid SVG
# carrying the degraded-data badge wherever events survived.
cargo run --quiet --release -p viva-bench --bin fuzz_ingest > /dev/null

echo "==> chaos-smoke: adversarial serving, recovery, and overload shedding"
# The chaos harness drives seeded hostile traffic (garbage frames, NaN
# sliders, torn frames, slow-loris peers, kill->restore->replay cycles,
# mutated checkpoints, a mid-storm golden replay) and asserts zero
# panics, zero wedges, byte-identical recovery renders, and a clean
# graceful drain. Its TCP storm runs over the same event-driven shard
# loop `viva-server --tcp` serves with. The resilience bench smoke then checks the gate sheds
# under pressure and restore works (latency claims are only asserted by
# the full run).
cargo run --quiet --release -p viva-bench --bin fuzz_server > /dev/null
cargo run --quiet --release -p viva-bench --bin fig_resilience -- --small > /dev/null

echo "==> stream-smoke: durable appends survive SIGKILL, resend converges"
# End-to-end durability at the process level: a client streams 10k
# events into a journaled TCP server, the server is SIGKILLed mid-
# append, a fresh server over the same journal directory recovers the
# session, and the client's at-least-once resend (duplicates acked
# idempotently, remainder applied) must converge to a render byte-
# identical to an uninterrupted run. A `--follow` subscriber on the
# recovered server must then see a live delta push. The streaming bench
# smoke re-checks recovery byte-identity and subscriber fan-out in
# process (timing gates are only asserted by the full run).
STREAM_SCRIPT=/tmp/viva_stream_smoke.script
STREAM_DIR_GOLD=/tmp/viva_stream_smoke_gold
STREAM_DIR_CRASH=/tmp/viva_stream_smoke_crash
rm -rf "$STREAM_DIR_GOLD" "$STREAM_DIR_CRASH"
{
  printf '{"cmd":"append","session":"live","seq":1,"text":"span,0.0,20000.0\\ncontainer,1,0,host,h0\\ncontainer,2,0,host,h1\\nmetric,0,MFlop/s,power\\nvar,0.0,1,0,100.0\\nvar,0.0,2,0,50.0"}\n'
  awk 'BEGIN { for (i = 2; i <= 10000; i++)
    printf "{\"cmd\":\"append\",\"session\":\"live\",\"seq\":%d,\"text\":\"var,%d,%d,0,%d\"}\n", i, i, (i % 2) + 1, i % 100 }'
  printf '{"cmd":"render","session":"live","width":640,"height":480,"theme":"light","labels":false}\n'
} > "$STREAM_SCRIPT"
# The uninterrupted reference run (stdio, journaled like the real one).
cargo run --quiet --release -p viva-server --bin viva-server -- --stdio \
  --journal-dir "$STREAM_DIR_GOLD" --journal-sync-every 100 \
  < "$STREAM_SCRIPT" | tail -n 1 > /tmp/viva_stream_smoke_gold.render
# The crashed run: fsync every append so every acked event survives.
rm -f /tmp/viva_stream_smoke_tcp.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
  --journal-dir "$STREAM_DIR_CRASH" --journal-sync-every 1 \
  > /dev/null 2> /tmp/viva_stream_smoke_tcp.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_stream_smoke_tcp.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" "$STREAM_SCRIPT" > /dev/null 2>&1 &
CLIENT_PID=$!
# Pull the trigger once at least ~2000 appends are durable, so the kill
# lands mid-stream rather than before or after it.
for _ in $(seq 1 500); do
  [ -f "$STREAM_DIR_CRASH/live.journal" ] \
    && [ "$(wc -l < "$STREAM_DIR_CRASH/live.journal")" -ge 2000 ] && break
  sleep 0.01
done
kill -9 "$SRV_PID" 2> /dev/null || true
wait "$SRV_PID" 2> /dev/null || true
wait "$CLIENT_PID" 2> /dev/null || true
test -s "$STREAM_DIR_CRASH/live.journal" || { echo "no journal written before the kill" >&2; exit 1; }
# Restart over the same journal directory: the session must come back,
# and resending the whole stream must converge byte-for-byte.
rm -f /tmp/viva_stream_smoke_tcp2.log
target/release/viva-server --tcp 127.0.0.1:0 --workers 2 \
  --journal-dir "$STREAM_DIR_CRASH" --journal-sync-every 1 \
  > /dev/null 2> /tmp/viva_stream_smoke_tcp2.log &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 200); do
  ADDR=$(sed -n 's/^viva-server: listening on \([0-9.:]*\) .*/\1/p' /tmp/viva_stream_smoke_tcp2.log)
  [ -n "$ADDR" ] && break
  sleep 0.05
done
test -n "$ADDR" || { echo "restarted viva-server never announced its address" >&2; kill "$SRV_PID"; exit 1; }
grep -q 'recovered live session "live"' /tmp/viva_stream_smoke_tcp2.log \
  || { echo "restarted server did not recover the live session" >&2; kill "$SRV_PID"; exit 1; }
target/release/viva-server-client --tcp "$ADDR" "$STREAM_SCRIPT" \
  | tail -n 1 > /tmp/viva_stream_smoke_recovered.render
diff -u /tmp/viva_stream_smoke_gold.render /tmp/viva_stream_smoke_recovered.render
# A live follower on the recovered stream must see the next delta.
target/release/viva-server-client --tcp "$ADDR" --follow live \
  > /tmp/viva_stream_smoke_follow.ndjson 2> /dev/null &
FOLLOW_PID=$!
sleep 0.3
echo '{"cmd":"append","session":"live","seq":10001,"text":"var,10001,1,0,42"}' \
  | target/release/viva-server-client --tcp "$ADDR" > /dev/null
for _ in $(seq 1 100); do
  grep -q '"push":"delta"' /tmp/viva_stream_smoke_follow.ndjson && break
  sleep 0.05
done
kill "$FOLLOW_PID" 2> /dev/null || true
wait "$FOLLOW_PID" 2> /dev/null || true
grep -q '"push":"subscribed"\|"ok":"subscribed"' /tmp/viva_stream_smoke_follow.ndjson \
  || { echo "follower never subscribed" >&2; kill "$SRV_PID"; exit 1; }
grep -q '"push":"delta"' /tmp/viva_stream_smoke_follow.ndjson \
  || { echo "follower never saw a delta push" >&2; kill "$SRV_PID"; exit 1; }
echo '{"cmd":"shutdown"}' | target/release/viva-server-client --tcp "$ADDR" > /dev/null
wait "$SRV_PID"
cargo run --quiet --release -p viva-bench --bin fig_streaming -- --small > /dev/null

echo "==> analystbench: its tests and a 1 s run of every workload"
# The wire-level benchmark compiles against the server's public API and
# its mirror checks every reply byte against `Response::encode`: a
# break in that API fails the build here, a changed reply byte fails
# the run. Each run must exit 0 and report "correct": true.
cargo test --release --offline --quiet --manifest-path analystbench/Cargo.toml
for WORKLOAD in explore zoom100k ingest; do
  BENCH_OUT=$(cargo run --release --offline --quiet --manifest-path analystbench/Cargo.toml -- \
    --workload "$WORKLOAD" --seed 1 --seconds 1 --trace 0)
  printf '%s\n' "$BENCH_OUT" | tail -n 1 | grep -q '^{"correct": true,' \
    || { echo "analystbench $WORKLOAD: replies not correct" >&2; exit 1; }
done

echo "ci: all green"
