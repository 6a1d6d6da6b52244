#!/usr/bin/env bash
# The full CI gate: formatting, lints (warnings are errors), the tier-1
# build+test pass, and the workspace test suite. Run before every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

# wait_for_port_files MESSAGE "PIDS" FILE...: waits up to 10 s for every
# FILE to be non-empty (a server writes its port file once it listens).
# On timeout prints MESSAGE, kills PIDS and fails the run.
wait_for_port_files() {
  local message="$1" pids="$2" ready file
  shift 2
  for _ in $(seq 1 100); do
    ready=1
    for file in "$@"; do
      [ -s "$file" ] || ready=0
    done
    [ "$ready" -eq 1 ] && return 0
    sleep 0.1
  done
  echo "$message" >&2
  # shellcheck disable=SC2086 # PIDS is a space-separated list
  kill $pids 2>/dev/null || true
  exit 1
}

# wait_for_exit MESSAGE "PIDS" PID...: waits up to 10 s for every PID to
# exit after its drain, then reaps them. On timeout prints MESSAGE,
# kills PIDS and fails the run.
wait_for_exit() {
  local message="$1" pids="$2" alive pid
  shift 2
  for _ in $(seq 1 100); do
    alive=0
    for pid in "$@"; do
      if kill -0 "$pid" 2>/dev/null; then alive=1; fi
    done
    [ "$alive" -eq 0 ] && break
    sleep 0.1
  done
  if [ "$alive" -ne 0 ]; then
    echo "$message" >&2
    # shellcheck disable=SC2086 # PIDS is a space-separated list
    kill $pids 2>/dev/null || true
    exit 1
  fi
  wait "$@"
}

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

echo "== one line server =="
# Both tiers serve the line protocol through drift_gateway::framing's
# LineServer, which owns the accept loop, the read tick and the write
# timeout. Neither tier may accept or time its own sockets.
if grep -rnE 'listener\.accept\(\)|set_read_timeout|set_write_timeout' \
  crates/gateway/src/server.rs crates/router/src; then
  echo "line server lint: serve connections through drift_gateway::framing::LineServer" >&2
  exit 1
fi
# A connection runs one thread, and the thread that settles a reply
# writes it through the connection's Outbox: no reply channel, and no
# writer thread to hand replies to.
# (The one-worker-pool lint below keeps crossbeam channels out.)
if grep -rnE -- '-writer' crates/gateway/src crates/router/src; then
  echo "line server lint: write replies through framing::Outbox, not a channel to a writer thread" >&2
  exit 1
fi

echo "== one worker pool =="
# Offline serve and the gateway run their workers through one loop,
# drift_serve::worker::run_worker: offline results land in slots, gateway
# replies in Outboxes, and the store spill uses std::sync::mpsc. No
# source uses crossbeam; vendor/crossbeam waits only on the benchmark's
# lock file (vendor/README.md).
if grep -rn 'crossbeam' --include='*.rs' crates src tests examples; then
  echo "pool lint: run workers through drift_serve::worker::run_worker; no crossbeam" >&2
  exit 1
fi

echo "== one queue discipline =="
# The serving queue is one deadline heap, which drains in submission
# order when no job carries a deadline (docs/SCHEDULING.md): there is no
# discipline to choose, advertise or count. The bracketed letters keep
# this lint from matching its own lines.
if grep -rnE 'Queue[P]olicy|job_queue_with_polic[y]|ping_queu[e]|shards_by_queu[e]|--queu[e] ' \
  crates docs README.md scripts; then
  echo "queue lint: one deadline-ordered queue; no discipline option or policy type" >&2
  exit 1
fi

echo "== one pool config =="
# drift serve and drift gateway run one worker pool with one config,
# drift_serve::ServeConfig, which drift_gateway re-exports as
# GatewayConfig. A request's deadline comes only from its own line, and
# the idle timeout is the constant drift_gateway::framing::IDLE_TIMEOUT.
# The bracketed letters keep this lint from matching its own lines.
if grep -rnE 'default_deadline_m[s]|idle_timeout_m[s]|idle-timeout-m[s]|struct GatewayConfi[g]' \
  crates docs README.md scripts; then
  echo "pool config lint: one pool config; no deadline default or idle-timeout option" >&2
  exit 1
fi

echo "== one router config =="
# drift_router::RouterConfig holds the ring's vnodes and the probe
# period, which tests set; drift router builds its default. The hop
# limit and connect timeout are the constants drift_router::server::
# MAX_HOPS and CONNECT_TIMEOUT, and clients retry sheds on one fixed
# schedule, drift_gateway::client::backoff. The bracketed letters keep
# this lint from matching its own lines.
if grep -rnE 'max_hop[s]|max-hop[s]|connect_timeout_m[s]|connect-timeout-m[s]|probe-interval-m[s]|--vnode[s]|RetryPolic[y]' \
  crates docs README.md scripts; then
  echo "router config lint: one router config and one retry schedule; no hop, timeout, probe or vnodes option" >&2
  exit 1
fi

echo "== one load shape =="
# drift loadgen sends a steady stream, closed loop or open loop at a
# fixed rate, on one connection per client. The bursty regime where
# deadline order pays is pinned in crates/serve/tests/queue_edges.rs.
# EXPERIMENTS.md holds records and stays out of scope. The bracketed
# letters keep this lint from matching its own lines.
if grep -rnE 'burst_m[s]|burst-m[s]|connect_per_reques[t]|connect-per-reques[t]' \
  crates docs README.md scripts; then
  echo "load shape lint: one steady stream on one connection per client; no burst or per-request connect option" >&2
  exit 1
fi

echo "== one real-process smoke =="
# The serving smoke below is the one test of real processes; every other
# test runs in process (router failover: a seeded fake shard in
# crates/router/tests/failover.rs). No test or library spawns a process.
if grep -rnE 'CARGO_BIN_EXE|Command::new' crates/*/tests tests crates/*/src; then
  echo "smoke lint: test in process; ci.sh's serving smoke is the one real-process test" >&2
  exit 1
fi

echo "== one benchmark =="
# perfbench (perfbench/README.md) is the one performance tool: its
# per-layer metrics time the calls a micro-benchmark would. No workspace
# crate may declare a [[bench]] target, depend on criterion, or keep a
# benches directory.
if grep -nE '^\[\[bench\]\]|^[[:space:]]*criterion[[:space:].=]|dependencies\.criterion\]' \
  Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml \
  || find crates -mindepth 2 -maxdepth 2 -name benches | grep .; then
  echo "benchmark lint: measure performance with perfbench, not cargo bench" >&2
  exit 1
fi

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

echo "== workspace tests =="
cargo test -q --workspace

echo "== release-build tests =="
# Inlining and vectorisation happen only in optimised builds, so the
# keystream and its lane handout, the bulk Laplace sampler, the Select
# certificate's one-pass fold and its bounded decision, the one-pass
# statistics fold and the policies that read it, the index-buffer
# dispatch property, the pinned generator and result bytes, the serve
# crate's own tests (the schedule cache's single-flight counts among
# them), the queue's edge and accelerator-lease tests (their races show
# in an optimised build) and the algorithm and simulator properties are
# checked there too. The wide paths (the AVX-512 keystream refill and
# lane handout, sampler body and fold kernel) are picked at run time, so
# debug and release both exercise them on an AVX-512 host. The gateway
# and router suites run here too: replies are written from worker and
# shard-link reader threads, and from gateway readers that run a lone
# line themselves, whose timing an optimised build changes, and the
# gateway robustness suite's stale-deadline tests hold a 1 ms budget
# behind jobs sized to outlast it at least 5× in an optimised build.
cargo test -q --release -p rand_chacha
cargo test -q --release -p drift-tensor -p drift-nn -p drift-quant -p drift-core
cargo test -q --release -p drift-serve --lib --test determinism --test queue_edges
cargo test -q --release -p drift-gateway -p drift-router
cargo test -q --release --test algorithm_properties --test simulator_crosscheck

echo "== perfbench build and self-tests =="
# The benchmark harness is its own package (not a workspace member) that
# calls the serving stack's public APIs, e.g.
# drift_serve::worker::{execute_job, execute_group}. Building and
# self-testing it here catches a refactor that would break the
# benchmark. Writes only to the git-ignored perfbench/target.
cargo test --release --locked --manifest-path perfbench/Cargo.toml

echo "== serving smoke test =="
# One topology of real processes: gateway A (schedule store, span
# file), gateway B (span file) and the router over both (1-in-1 trace
# sampling, metrics snapshot). loadgen, which fails on any lost,
# duplicated or unretried-shed id, drives the same 200 jobs through the
# router as singleton, 50-job batch and deadline-carrying lines. The
# 30-60 s deadlines carry budgets into both shards' deadline-ordered
# queues and never expire, so every job is traced; expiry and EDF order
# are covered by crates/gateway/tests/robustness.rs and the serve queue
# tests.
cargo build --release -p drift-cli
DRIFT=./target/release/drift
S="$(mktemp -d)"
$DRIFT gateway --addr 127.0.0.1:0 --workers 2 --port-file "$S/a.port" \
  --store "$S/a.drift" --trace-out "$S/a.spans" &
A_PID=$!
$DRIFT gateway --addr 127.0.0.1:0 --workers 2 --port-file "$S/b.port" \
  --trace-out "$S/b.spans" &
B_PID=$!
wait_for_port_files "serving smoke: a gateway never wrote its port file" \
  "$A_PID $B_PID" "$S/a.port" "$S/b.port"
A_ADDR="$(cat "$S/a.port")"
B_ADDR="$(cat "$S/b.port")"
$DRIFT router --addr 127.0.0.1:0 --shards "$A_ADDR,$B_ADDR" \
  --port-file "$S/r.port" --trace-out "$S/r.spans" --trace-sample 1/1 \
  --trace-seed 7 --metrics-out "$S/r.json" &
R_PID=$!
wait_for_port_files "serving smoke: the router never wrote its port file" \
  "$R_PID $A_PID $B_PID" "$S/r.port"
R_ADDR="$(cat "$S/r.port")"
LOAD=(loadgen --addr "$R_ADDR" --clients 4 --jobs 200)
$DRIFT "${LOAD[@]}" > "$S/singleton.jsonl" 2> /dev/null
$DRIFT "${LOAD[@]}" --batch 50 > "$S/batch.jsonl" 2> /dev/null
$DRIFT "${LOAD[@]}" --deadline-ms 30000 --deadline-jitter-ms 30000 \
  > "$S/deadline.jsonl" 2> /dev/null
for run in batch deadline; do
  if ! diff -q "$S/singleton.jsonl" "$S/$run.jsonl" > /dev/null; then
    echo "serving smoke: $run results differ from singleton results" >&2
    kill "$R_PID" "$A_PID" "$B_PID" 2>/dev/null || true
    exit 1
  fi
done
$DRIFT router-stop --addr "$R_ADDR"
$DRIFT gateway-stop --addr "$A_ADDR"
$DRIFT gateway-stop --addr "$B_ADDR"
wait_for_exit "serving smoke: a process did not exit within 10s of the drain" \
  "$R_PID $A_PID $B_PID" "$R_PID" "$A_PID" "$B_PID"
# The drained router's snapshot must show both shards took traffic.
ROUTED="$(grep 'drift_router_requests_routed_total' "$S/r.json" || true)"
if [ "$(echo "$ROUTED" | grep -c .)" -ne 2 ] || echo "$ROUTED" | grep -q '"value": 0'; then
  echo "serving smoke: expected 2 per-shard routed series, none zero: $ROUTED" >&2
  exit 1
fi
# Each request line the router admits is one sampled trace: 200
# singleton lines + 4 batch lines (one per client's 50 jobs) + 200
# deadline lines = 404, each with every hop and no orphaned span.
$DRIFT trace "$S/r.spans" "$S/a.spans" "$S/b.spans" --expect-traces 404 \
  --check-services router,gateway,serve \
  --check-hops router.request,router.hop,gateway.request,gateway.queue_wait,gateway.execute,gateway.response_write \
  > /dev/null
# Gateway A spilled every schedule it solved to its store.
$DRIFT store verify "$S/a.drift" --deep > /dev/null
$DRIFT store compact "$S/a.drift" > /dev/null
$DRIFT store verify "$S/a.drift" --deep > /dev/null
# drift serve's own --store wiring (docs/PERSISTENCE.md): a warm run
# gives the cold run's bytes, loads the 10 stored schedules, solves none.
for i in $(seq 0 99); do
  printf '{"id":%d,"seed":%d,"kind":{"Schedule":{"m":%d,"k":128,"n":64,"fa":0.25,"fw":0.5}}}\n' \
    "$i" "$((i + 1))" "$((64 + 16 * (i % 10)))"
done > "$S/jobs.jsonl"
for run in cold warm; do
  $DRIFT serve --jobs "$S/jobs.jsonl" --workers 2 --store "$S/serve.drift" \
    --metrics-out "$S/$run.json" > "$S/$run.out" 2> /dev/null
done
if ! diff -q "$S/cold.out" "$S/warm.out" > /dev/null; then
  echo "serving smoke: warm-started results differ from cold results" >&2
  exit 1
fi
if ! grep '"drift_store_records_loaded_total"' "$S/warm.json" \
  | grep -q '"value": 10'; then
  echo "serving smoke: warm start did not load the 10 stored schedules" >&2
  exit 1
fi
# A never-incremented counter is absent from the snapshot, so the warm
# run passes iff the miss counter is missing or explicitly zero.
if grep '"drift_schedule_cache_misses_total"' "$S/warm.json" \
  | grep -v '"value": 0' | grep -q .; then
  echo "serving smoke: warm-started run still solved schedules (cache misses != 0)" >&2
  exit 1
fi
rm -rf "$S"
echo "serving smoke: ok"

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
