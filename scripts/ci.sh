#!/usr/bin/env bash
# The full CI gate: formatting, lints (warnings are errors), the tier-1
# build+test pass, and the workspace test suite. Run before every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== one stage-timing primitive =="
# Every stage is timed once, through drift_obs::Stage, which feeds both
# drift_stage_microseconds and the trace span (docs/OBSERVABILITY.md).
# Outside crates/obs no code may build a SpanRecord, reference a
# latency bucket set, or open a span! guard.
if grep -rnE 'SpanRecord|(LATENCY|SOLVE)_[A-Z]+_BUCKETS|\bspan!' \
  --include='*.rs' crates src tests examples | grep -v '^crates/obs/'; then
  echo "stage lint: time stages with drift_obs::Stage, not by hand" >&2
  exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== release-build tests =="
# Inlining and vectorisation happen only in optimised builds, so the
# keystream, the bulk Laplace sampler, the pinned generator and result
# bytes and the algorithm and simulator properties are checked there
# too. The wide paths (the AVX-512 keystream refill and sampler body)
# are picked at run time, so debug and release both exercise them on an
# AVX-512 host. The gateway robustness suite stays out: its two
# stale-deadline tests race each other for the CPUs in release
# (ROADMAP.md, deterministic fault injection).
cargo test -q --release -p rand_chacha
cargo test -q --release -p drift-tensor -p drift-nn
cargo test -q --release -p drift-serve --test determinism
cargo test -q --release --test algorithm_properties --test simulator_crosscheck

echo "== perfbench build and self-tests =="
# The benchmark harness is its own package (not a workspace member) that
# calls the serving stack's public APIs, e.g.
# drift_serve::worker::{execute_job, execute_group}. Building and
# self-testing it here catches a refactor that would break the
# benchmark. Writes only to the git-ignored perfbench/target.
cargo test --release --locked --manifest-path perfbench/Cargo.toml

echo "== gateway smoke test =="
# End-to-end over a real socket: start the gateway on an ephemeral port,
# drive it with the closed-loop load generator (which fails on any lost,
# shed-without-retry-success, or duplicated response), then drain it and
# require a clean exit within a bounded wait.
cargo build --release -p drift-cli
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 4 \
  --port-file "$PORT_FILE" &
GW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$PORT_FILE" ]; then
  echo "gateway smoke: server never wrote its port file" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
GW_ADDR="$(cat "$PORT_FILE")"
./target/release/drift loadgen --addr "$GW_ADDR" --clients 4 --jobs 200 \
  > /dev/null
./target/release/drift gateway-stop --addr "$GW_ADDR"
for _ in $(seq 1 100); do
  kill -0 "$GW_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$GW_PID" 2>/dev/null; then
  echo "gateway smoke: server did not exit within 10s of the drain" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
wait "$GW_PID"
rm -f "$PORT_FILE"
echo "gateway smoke: ok"

echo "== gateway smoke test (EDF queue) =="
# Same end-to-end pass with the earliest-deadline-first discipline and
# jittered per-job deadlines: verifies --queue edf admission, ordering,
# and drain over a real socket (docs/SCHEDULING.md).
PORT_FILE="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 4 \
  --queue edf --port-file "$PORT_FILE" &
GW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$PORT_FILE" ]; then
  echo "gateway EDF smoke: server never wrote its port file" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
GW_ADDR="$(cat "$PORT_FILE")"
./target/release/drift loadgen --addr "$GW_ADDR" --clients 4 --jobs 200 \
  --deadline-ms 2000 --deadline-jitter-ms 2000 > /dev/null
./target/release/drift gateway-stop --addr "$GW_ADDR"
for _ in $(seq 1 100); do
  kill -0 "$GW_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$GW_PID" 2>/dev/null; then
  echo "gateway EDF smoke: server did not exit within 10s of the drain" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
wait "$GW_PID"
rm -f "$PORT_FILE"
echo "gateway EDF smoke: ok"

echo "== router smoke test =="
# Two gateway shards plus the consistent-hash router, all on ephemeral
# ports: drive the router with the closed-loop load generator (which
# fails on any lost or duplicated response), check both shards actually
# received traffic, then drain everything within a bounded wait.
GW1_PORT_FILE="$(mktemp)"; rm -f "$GW1_PORT_FILE"
GW2_PORT_FILE="$(mktemp)"; rm -f "$GW2_PORT_FILE"
RT_PORT_FILE="$(mktemp)";  rm -f "$RT_PORT_FILE"
RT_METRICS="$(mktemp)"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW1_PORT_FILE" &
GW1_PID=$!
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW2_PORT_FILE" &
GW2_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW1_PORT_FILE" ] && [ -s "$GW2_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$GW1_PORT_FILE" ] || ! [ -s "$GW2_PORT_FILE" ]; then
  echo "router smoke: a shard gateway never wrote its port file" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
GW1_ADDR="$(cat "$GW1_PORT_FILE")"
GW2_ADDR="$(cat "$GW2_PORT_FILE")"
./target/release/drift router --addr 127.0.0.1:0 \
  --shards "$GW1_ADDR,$GW2_ADDR" \
  --port-file "$RT_PORT_FILE" --metrics-out "$RT_METRICS" &
RT_PID=$!
for _ in $(seq 1 100); do
  [ -s "$RT_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$RT_PORT_FILE" ]; then
  echo "router smoke: router never wrote its port file" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
RT_ADDR="$(cat "$RT_PORT_FILE")"
./target/release/drift loadgen --addr "$RT_ADDR" --clients 4 --jobs 200 \
  > /dev/null
./target/release/drift router-stop --addr "$RT_ADDR"
for _ in $(seq 1 100); do
  kill -0 "$RT_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$RT_PID" 2>/dev/null; then
  echo "router smoke: router did not exit within 10s of the drain" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
wait "$RT_PID"
# The drained router's snapshot must show every shard took traffic.
ROUTED_SERIES="$(grep -c 'drift_router_requests_routed_total' "$RT_METRICS" || true)"
if [ "$ROUTED_SERIES" -ne 2 ]; then
  echo "router smoke: expected 2 per-shard routed series, got $ROUTED_SERIES" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
if grep 'drift_router_requests_routed_total' "$RT_METRICS" \
  | grep -q '"value": 0'; then
  echo "router smoke: a shard received zero routed requests" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
./target/release/drift gateway-stop --addr "$GW1_ADDR"
./target/release/drift gateway-stop --addr "$GW2_ADDR"
for _ in $(seq 1 100); do
  if ! kill -0 "$GW1_PID" 2>/dev/null && ! kill -0 "$GW2_PID" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$GW1_PID" 2>/dev/null || kill -0 "$GW2_PID" 2>/dev/null; then
  echo "router smoke: a shard gateway did not exit within 10s of the drain" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
wait "$GW1_PID" "$GW2_PID"
rm -f "$GW1_PORT_FILE" "$GW2_PORT_FILE" "$RT_PORT_FILE" "$RT_METRICS"
echo "router smoke: ok"

echo "== batch smoke test =="
# Batched wire protocol end to end (docs/SERVING.md): the same 200-job
# stream driven singleton and as 4 clients x 50-job batches — first
# through a gateway, then through the router over two shards — must
# produce byte-identical result JSONL. loadgen itself fails the run on
# any lost, duplicated, or unretried-shed id, so a clean diff proves
# batch framing, all-or-shed admission, per-batch schedule
# amortization, and router sub-batch splitting/reassembly all preserve
# the singleton bytes.
BATCH_DIR="$(mktemp -d)"
GW_PORT_FILE="$(mktemp)"; rm -f "$GW_PORT_FILE"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 4 \
  --port-file "$GW_PORT_FILE" &
GW_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$GW_PORT_FILE" ]; then
  echo "batch smoke: gateway never wrote its port file" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
GW_ADDR="$(cat "$GW_PORT_FILE")"
./target/release/drift loadgen --addr "$GW_ADDR" --clients 4 --jobs 200 \
  > "$BATCH_DIR/gw-singleton.jsonl" 2> /dev/null
./target/release/drift loadgen --addr "$GW_ADDR" --clients 4 --jobs 200 \
  --batch 50 > "$BATCH_DIR/gw-batch.jsonl" 2> /dev/null
if ! diff -q "$BATCH_DIR/gw-singleton.jsonl" "$BATCH_DIR/gw-batch.jsonl" \
  > /dev/null; then
  echo "batch smoke: gateway batch results differ from singleton results" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
./target/release/drift gateway-stop --addr "$GW_ADDR"
for _ in $(seq 1 100); do
  kill -0 "$GW_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$GW_PID" 2>/dev/null; then
  echo "batch smoke: gateway did not exit within 10s of the drain" >&2
  kill "$GW_PID" 2>/dev/null || true
  exit 1
fi
wait "$GW_PID"
rm -f "$GW_PORT_FILE"
# The same pass through the sharding tier: mixed-key batches force the
# router to split into per-shard sub-batches and reassemble.
GW1_PORT_FILE="$(mktemp)"; rm -f "$GW1_PORT_FILE"
GW2_PORT_FILE="$(mktemp)"; rm -f "$GW2_PORT_FILE"
RT_PORT_FILE="$(mktemp)";  rm -f "$RT_PORT_FILE"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW1_PORT_FILE" &
GW1_PID=$!
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW2_PORT_FILE" &
GW2_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW1_PORT_FILE" ] && [ -s "$GW2_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$GW1_PORT_FILE" ] || ! [ -s "$GW2_PORT_FILE" ]; then
  echo "batch smoke: a shard gateway never wrote its port file" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
GW1_ADDR="$(cat "$GW1_PORT_FILE")"
GW2_ADDR="$(cat "$GW2_PORT_FILE")"
./target/release/drift router --addr 127.0.0.1:0 \
  --shards "$GW1_ADDR,$GW2_ADDR" --port-file "$RT_PORT_FILE" &
RT_PID=$!
for _ in $(seq 1 100); do
  [ -s "$RT_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$RT_PORT_FILE" ]; then
  echo "batch smoke: router never wrote its port file" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
RT_ADDR="$(cat "$RT_PORT_FILE")"
./target/release/drift loadgen --addr "$RT_ADDR" --clients 4 --jobs 200 \
  > "$BATCH_DIR/rt-singleton.jsonl" 2> /dev/null
./target/release/drift loadgen --addr "$RT_ADDR" --clients 4 --jobs 200 \
  --batch 50 > "$BATCH_DIR/rt-batch.jsonl" 2> /dev/null
if ! diff -q "$BATCH_DIR/rt-singleton.jsonl" "$BATCH_DIR/rt-batch.jsonl" \
  > /dev/null; then
  echo "batch smoke: router batch results differ from singleton results" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
# The gateway and router runs offered the same stream, so all four
# result files must agree byte for byte.
if ! diff -q "$BATCH_DIR/gw-singleton.jsonl" "$BATCH_DIR/rt-batch.jsonl" \
  > /dev/null; then
  echo "batch smoke: routed batch results differ from direct gateway results" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
./target/release/drift router-stop --addr "$RT_ADDR"
./target/release/drift gateway-stop --addr "$GW1_ADDR"
./target/release/drift gateway-stop --addr "$GW2_ADDR"
for _ in $(seq 1 100); do
  if ! kill -0 "$RT_PID" 2>/dev/null && ! kill -0 "$GW1_PID" 2>/dev/null \
    && ! kill -0 "$GW2_PID" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$RT_PID" 2>/dev/null || kill -0 "$GW1_PID" 2>/dev/null \
  || kill -0 "$GW2_PID" 2>/dev/null; then
  echo "batch smoke: a process did not exit within 10s of the drain" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
wait "$RT_PID" "$GW1_PID" "$GW2_PID"
rm -f "$GW1_PORT_FILE" "$GW2_PORT_FILE" "$RT_PORT_FILE"
rm -rf "$BATCH_DIR"
echo "batch smoke: ok"

echo "== trace smoke test =="
# End-to-end distributed tracing: loadgen through the router and two
# gateway shards, every tier writing a JSONL span file, with 1-in-1
# sampling decided at the router (the ingress edge). `drift trace`
# merges the three files and asserts every sampled trace reconstructs
# a full waterfall — all router and gateway hops plus a serve-tier
# span, exactly one trace per job, zero orphaned spans (the default
# failure mode; no --allow-orphans here). docs/OBSERVABILITY.md.
GW1_PORT_FILE="$(mktemp)"; rm -f "$GW1_PORT_FILE"
GW2_PORT_FILE="$(mktemp)"; rm -f "$GW2_PORT_FILE"
RT_PORT_FILE="$(mktemp)";  rm -f "$RT_PORT_FILE"
GW1_TRACE="$(mktemp)"
GW2_TRACE="$(mktemp)"
RT_TRACE="$(mktemp)"
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW1_PORT_FILE" --trace-out "$GW1_TRACE" &
GW1_PID=$!
./target/release/drift gateway --addr 127.0.0.1:0 --workers 2 \
  --port-file "$GW2_PORT_FILE" --trace-out "$GW2_TRACE" &
GW2_PID=$!
for _ in $(seq 1 100); do
  [ -s "$GW1_PORT_FILE" ] && [ -s "$GW2_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$GW1_PORT_FILE" ] || ! [ -s "$GW2_PORT_FILE" ]; then
  echo "trace smoke: a shard gateway never wrote its port file" >&2
  kill "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
GW1_ADDR="$(cat "$GW1_PORT_FILE")"
GW2_ADDR="$(cat "$GW2_PORT_FILE")"
./target/release/drift router --addr 127.0.0.1:0 \
  --shards "$GW1_ADDR,$GW2_ADDR" --port-file "$RT_PORT_FILE" \
  --trace-out "$RT_TRACE" --trace-sample 1/1 --trace-seed 7 &
RT_PID=$!
for _ in $(seq 1 100); do
  [ -s "$RT_PORT_FILE" ] && break
  sleep 0.1
done
if ! [ -s "$RT_PORT_FILE" ]; then
  echo "trace smoke: router never wrote its port file" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
RT_ADDR="$(cat "$RT_PORT_FILE")"
./target/release/drift loadgen --addr "$RT_ADDR" --clients 4 --jobs 200 \
  > /dev/null
./target/release/drift router-stop --addr "$RT_ADDR"
./target/release/drift gateway-stop --addr "$GW1_ADDR"
./target/release/drift gateway-stop --addr "$GW2_ADDR"
for _ in $(seq 1 100); do
  if ! kill -0 "$RT_PID" 2>/dev/null && ! kill -0 "$GW1_PID" 2>/dev/null \
    && ! kill -0 "$GW2_PID" 2>/dev/null; then
    break
  fi
  sleep 0.1
done
if kill -0 "$RT_PID" 2>/dev/null || kill -0 "$GW1_PID" 2>/dev/null \
  || kill -0 "$GW2_PID" 2>/dev/null; then
  echo "trace smoke: a process did not exit within 10s of the drain" >&2
  kill "$RT_PID" "$GW1_PID" "$GW2_PID" 2>/dev/null || true
  exit 1
fi
wait "$RT_PID" "$GW1_PID" "$GW2_PID"
./target/release/drift trace "$RT_TRACE" "$GW1_TRACE" "$GW2_TRACE" \
  --expect-traces 200 \
  --check-services router,gateway,serve \
  --check-hops router.request,router.hop,gateway.request,gateway.queue_wait,gateway.execute,gateway.response_write \
  > /dev/null
rm -f "$GW1_PORT_FILE" "$GW2_PORT_FILE" "$RT_PORT_FILE" \
  "$GW1_TRACE" "$GW2_TRACE" "$RT_TRACE"
echo "trace smoke: ok"

echo "== store smoke test =="
# Schedule-store persistence end to end (docs/PERSISTENCE.md): serve a
# job stream cold with --store, then re-serve the same stream warm from
# the store file. The warm run must produce byte-identical results with
# zero schedule solves (a ~100% cache hit rate from the warm start),
# and the store tooling must verify and compact the file in place.
STORE_DIR="$(mktemp -d)"
STORE_FILE="$STORE_DIR/sched.drift"
STORE_JOBS="$STORE_DIR/jobs.jsonl"
for i in $(seq 0 99); do
  s=$((i % 10))
  printf '{"id":%d,"seed":%d,"kind":{"Schedule":{"m":%d,"k":128,"n":64,"fa":0.25,"fw":0.5}}}\n' \
    "$i" "$((i + 1))" "$((64 + 16 * s))"
done > "$STORE_JOBS"
./target/release/drift serve --jobs "$STORE_JOBS" --workers 2 \
  --store "$STORE_FILE" --metrics-out "$STORE_DIR/cold.json" \
  > "$STORE_DIR/cold.out" 2> /dev/null
./target/release/drift serve --jobs "$STORE_JOBS" --workers 2 \
  --store "$STORE_FILE" --metrics-out "$STORE_DIR/warm.json" \
  > "$STORE_DIR/warm.out" 2> /dev/null
if ! diff -q "$STORE_DIR/cold.out" "$STORE_DIR/warm.out" > /dev/null; then
  echo "store smoke: warm-started results differ from cold results" >&2
  exit 1
fi
if ! grep '"drift_store_records_loaded_total"' "$STORE_DIR/warm.json" \
  | grep -q '"value": 10'; then
  echo "store smoke: warm start did not load the 10 stored schedules" >&2
  exit 1
fi
# A never-incremented counter is absent from the snapshot, so the warm
# run passes iff the miss counter is missing or explicitly zero.
if grep '"drift_schedule_cache_misses_total"' "$STORE_DIR/warm.json" \
  | grep -v '"value": 0' | grep -q .; then
  echo "store smoke: warm-started run still solved schedules (cache misses != 0)" >&2
  exit 1
fi
./target/release/drift store verify "$STORE_FILE" --deep > /dev/null
./target/release/drift store compact "$STORE_FILE" > /dev/null
./target/release/drift store verify "$STORE_FILE" --deep > /dev/null
rm -rf "$STORE_DIR"
echo "store smoke: ok"

echo "== doc links =="
# Every relative markdown link in README.md and docs/*.md must point at
# a file that exists (anchors are stripped; absolute URLs are skipped).
DOC_LINK_FAILURES=0
for doc in README.md docs/*.md; do
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if ! [ -e "$(dirname "$doc")/$path" ] && ! [ -e "$path" ]; then
      echo "doc links: $doc -> $target (missing)" >&2
      DOC_LINK_FAILURES=$((DOC_LINK_FAILURES + 1))
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -e 's/^](//' -e 's/)$//')
done
# Every `drift_<crate>::<name>` path in the same docs must name a
# module of that crate (crates/<crate>/src/<name>.rs or <name>/mod.rs)
# or a top-level `pub` item declared in its sources.
while IFS=: read -r doc crate name; do
  src="crates/$crate/src"
  if [ -e "$src/$name.rs" ] || [ -e "$src/$name/mod.rs" ]; then
    continue
  fi
  if [ -d "$src" ] && grep -rqE \
    "^pub ((const|async|unsafe) )*(fn|struct|enum|trait|type|const|static|mod) $name\b" \
    "$src"; then
    continue
  fi
  echo "doc links: $doc -> drift_$crate::$name (no such module or item)" >&2
  DOC_LINK_FAILURES=$((DOC_LINK_FAILURES + 1))
done < <(grep -oE 'drift_[a-z]+::[A-Za-z_][A-Za-z0-9_]*' README.md docs/*.md \
  | sed -E 's/drift_([a-z]+)::/\1:/' | sort -u)
if [ "$DOC_LINK_FAILURES" -ne 0 ]; then
  echo "doc links: $DOC_LINK_FAILURES broken relative link(s) or code path(s)" >&2
  exit 1
fi
echo "doc links: ok"

echo "== rustdoc (drift crates, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p drift -p drift-obs -p drift-tensor -p drift-quant -p drift-accel \
  -p drift-core -p drift-store -p drift-nn -p drift-serve \
  -p drift-gateway -p drift-router -p drift-bench -p drift-cli

echo "== doc tests =="
cargo test -q --workspace --doc

echo "ci: all green"
