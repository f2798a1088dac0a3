#!/usr/bin/env bash
# Hermetic CI gate: everything here runs offline (the default dependency
# tree contains no external crates — see README "Hermetic build").
set -euxo pipefail

cd "$(dirname "$0")"

cargo build --release --offline
cargo test -q --offline --no-fail-fast
# Thorough property checks (16x cases), as in the workflow: the property
# batteries of the incremental simulators' edit sessions run here too.
cargo test -q --offline --no-fail-fast --features proptest
cargo fmt --check
# Every lint clippy enables by default, on every target, is an error
# (`rustup component add clippy` on a toolchain without it).
cargo clippy --offline --workspace --all-targets -- -D warnings
# Every experiment (Table I included) rewrites its results/*.json dump;
# the committed dumps must reproduce byte for byte.
cargo run --release --offline -p hlpower-bench --bin repro -- --all
git diff --exit-code -- results/[FST]*.json
# Instrumentation smoke: exits non-zero if any instrumented counter is
# still zero after the pass; dumps results/metrics.json.
cargo run --release --offline -p hlpower-bench --bin repro -- --metrics
# Trace + profile smoke: runs the power-attribution profiler with span
# tracing on. Exits non-zero if any circuit's attribution fails to
# reconcile with its power report (<= 1e-9 relative), if the exported
# Chrome trace does not round-trip through the in-tree parser, or if
# any trace event was dropped; dumps results/trace.json and
# results/profile/<circuit>.{json,folded}.
HLPOWER_TRACE=results/trace.json \
  cargo run --release --offline -p hlpower-bench --bin repro -- --profile
# Ingestion smoke: parse the sample external netlists (structural
# Verilog + EDIF), run the differential battery on each (packed vs
# scalar kernels, MC vs BDD-exact, attribution reconciliation, Verilog
# round trip); exits non-zero on any parse error or failed check and
# dumps results/ingest/<stem>.json.
cargo run --release --offline -p hlpower-bench --bin repro -- \
  --ingest examples/gray_counter4.v examples/majority.edf
# Kernel throughput smoke: one bench, one dump (results/BENCH_kernels.json).
# Exits non-zero if, on the 16-bit array multiplier, any kernel of a row
# diverges from the row's first kernel by a single bit of power_uw or in
# batch or cycle count (scalar vs packed64 in zero-delay and glitch mode;
# packed64 vs 256 vs 512), or if a gate fails:
#   - zero-delay: packed64 (slot-packed words) more than 55x faster than
#     scalar;
#   - glitch: packed64 time-packed glitch words more than 5.7x faster than
#     the scalar event sim;
#   - zero-delay: packed256 more than 1.15x faster than packed64;
#   - phases: on each shape, the 64-lane zero-delay word's total per
#     lane-cycle at most 3x the 512-lane word's;
#   - optimize: incremental guard scoring (bit-identical per candidate to
#     the from-scratch scorer) faster than from-scratch, and at least 200x
#     in full mode; rewrite dirty-cone replay strictly less work than one
#     full replay per candidate;
#   - record: in full mode, the packed recorder (IncrementalSim::record)
#     at least 5x faster than a scalar ZeroDelaySim run on a pipeline cut.
# It also exits non-zero if, in the `timed` section (timed_activity on the
# 4- and 16-bit multipliers over 300 and 513 vectors), the 64-, 256- and
# 512-lane kernels and Auto return different records, or if, in the
# `record` section (a pipeline cut, a precomputed comparator and a
# one-hot FSM), the recorder's activity differs from the scalar run's;
# the `timed` section has no speed gate.
# The per-lane bit-identity battery runs in the test step above
# (tests/wide_differential.rs).
cargo bench --offline -p hlpower-bench --bench kernels
# Estimation-server smoke: boot the daemon on an ephemeral port with
# request-scoped telemetry fully on (JSONL access log + Chrome trace),
# drive it with the in-tree client (no curl), require the `serve`
# metrics section to be live after real traffic, scrape both metrics
# formats, shut down cleanly, then audit the whole run: every access
# line must parse with correlated request ids and stage timings that
# sum within the request wall time, every response body id must appear
# in the access log, every access id must have a trace span, and the
# Prometheus exposition must parse and cover the estimate traffic.
mkdir -p results/serve
rm -f results/serve/addr results/serve/access.jsonl results/serve/responses.jsonl
cargo build --release --offline -p hlpower-serve
HLPOWER_ACCESS_LOG=results/serve/access.jsonl \
HLPOWER_TRACE=results/serve/trace.json \
  target/release/hlpower-serve serve --addr 127.0.0.1:0 \
  --addr-file results/serve/addr >results/serve/server.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s results/serve/addr ] && break
  kill -0 "$SERVE_PID" || { cat results/serve/server.log; exit 1; }
  sleep 0.1
done
SERVE_ADDR=$(cat results/serve/addr)
target/release/hlpower-serve post "$SERVE_ADDR" examples/gray_counter4.v \
  --request-id ci-gray-1 >results/serve/gray_counter4.json
target/release/hlpower-serve post "$SERVE_ADDR" examples/majority.edf \
  >results/serve/majority.json
target/release/hlpower-serve post "$SERVE_ADDR" examples/gray_counter4.v \
  --stream --mode glitch --width 256 >results/serve/gray_stream.jsonl
# Source locations are built only when a parse fails; a malformed
# netlist must still come back as a 400 whose snippet is the
# offending source line.
printf 'module m (a, y);\n  input a;\n  output y;\n  frobnicate f (y, a);\nendmodule\n' \
  >results/serve/malformed.v
if target/release/hlpower-serve post "$SERVE_ADDR" results/serve/malformed.v \
    --request-id ci-malformed-1 >results/serve/malformed.json 2>results/serve/malformed.err; then
  echo "malformed netlist was accepted"; exit 1
fi
grep -q 'server answered 400' results/serve/malformed.err \
  || { cat results/serve/malformed.err; exit 1; }
grep -qF '"snippet": "  frobnicate f (y, a);"' results/serve/malformed.json \
  || { cat results/serve/malformed.json; exit 1; }
SERVE_LIVE=0
for _ in $(seq 1 50); do
  target/release/hlpower-serve metrics "$SERVE_ADDR" >results/serve/metrics.json
  if grep -A 20 '"serve"' results/serve/metrics.json \
      | grep -q '"requests": [1-9]'; then
    SERVE_LIVE=1
    break
  fi
  sleep 0.1
done
[ "$SERVE_LIVE" = 1 ] || { echo "serve metrics stayed zero"; exit 1; }
target/release/hlpower-serve metrics "$SERVE_ADDR" --format prometheus \
  >results/serve/metrics.prom
target/release/hlpower-serve stop "$SERVE_ADDR"
wait "$SERVE_PID"
# Blocking bodies are pretty-printed; flatten each to one line so the
# audit can parse the responses file as JSONL, then append the already
# line-oriented streamed updates.
for f in gray_counter4.json majority.json malformed.json; do
  tr -d '\n' <"results/serve/$f" >>results/serve/responses.jsonl
  printf '\n' >>results/serve/responses.jsonl
done
cat results/serve/gray_stream.jsonl >>results/serve/responses.jsonl
target/release/hlpower-serve audit --access results/serve/access.jsonl \
  --responses results/serve/responses.jsonl \
  --trace results/serve/trace.json \
  --prom results/serve/metrics.prom
# API docs of every library must build clean: every public item is
# documented (#![warn(missing_docs)] everywhere) and -D warnings makes
# any rustdoc regression (broken intra-doc link, missing doc) fatal.
# The benchmark binaries' docs are left to the full step below, so a
# broken link there cannot hide one in the libraries.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --exclude hlpower-bench
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p hlpower-bench --lib
# The same over the whole workspace, binaries included. Last, so a
# rustdoc failure cannot hide the result of any gate above.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline
