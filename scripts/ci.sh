#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
#
#   scripts/ci.sh            # fmt --check, clippy -D warnings, tests, benchmark smoke
#
# Runs offline: all external crates resolve to the local stubs under
# crates/vendor/ via [patch.crates-io] (see CHANGES.md for why).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== no-unwrap gate (core/nn/serve/gateway/obs/tensor + autodiff tape + capacity planner non-test code) =="
bash scripts/check_no_unwrap.sh

echo "== one parallel fan-out (no crossbeam:: call outside crates/vendor; use rpf_tensor::par or std::thread::scope) =="
if grep -rn 'crossbeam::' crates/*/src; then
  echo "crossbeam check failed: fan out through rpf_tensor::par::par_ranges or std::thread::scope" >&2
  exit 1
fi

echo "== one recorder cell (no striped counters, per-thread metric handles, sharded span/cache locks or thread-local slot cache in crates/*/src; vendor stubs are outside that glob) =="
if grep -rnE 'LocalCounter|LocalHistogram|thread_shard|COUNTER_SHARDS|SPAN_SHARDS|CACHE_SHARDS|SLOT_CACHE|repr\(align' crates/*/src; then
  echo "recorder cell check failed: record through one plain atomic per metric and guard shared state with one lock" >&2
  exit 1
fi

echo "== one scheduler clock (no Instant or .elapsed() in the serve scheduler files; stamp through rpf_obs::WallClock, loadgen.rs exempt as the wall-clock load driver) =="
if grep -nE 'Instant|\.elapsed\(\)' crates/serve/src/{scheduler,mailbox,server,replay}.rs; then
  echo "scheduler clock check failed: pass now_ns into the scheduler core, read from the mailbox's rpf_obs::WallClock" >&2
  exit 1
fi

echo "== tape GEMM parity (matmul/matmul_at/matmul_bt bitwise to the reference loops; LSTM gradient bits pinned) =="
cargo test -q -p rpf-tensor --test proptests --offline
cargo test -q -p rpf-nn --test gradient_bits --offline

echo "== backend parity (StackedLstm::step_batched and GaussianHead::forward_batched within tolerance of the tape, bit-deterministic, row-independent) =="
cargo test -q -p rpf-nn --test infer_parity --offline

echo "== decode parity (batched vs tape within tolerance, bit-deterministic) =="
cargo test -q -p ranknet-core --test decode_parity --offline

echo "== engine determinism (tape reference + engine across thread counts) =="
cargo test -q -p ranknet-core --test engine_determinism --offline

echo "== engine cache bounds (LRU cap + eviction bit-determinism) =="
cargo test -q -p ranknet-core --test engine_cache --offline

echo "== lifecycle store (versioned artifacts, torn/corrupt quarantine) =="
cargo test -q -p ranknet-core --test lifecycle_store --offline

echo "== pit runtime rebuild (predict after import or clone serves the current weights) =="
cargo test -q -p ranknet-core --test pit_runtime_rebuild --offline

echo "== covariate sampling parity (hoisted == per-draw reference) =="
cargo test -q -p ranknet-core --test covariate_sampling --offline

echo "== serving equivalence (batched + sharded == direct, bitwise) =="
cargo test -q -p rpf-serve --test serve_equivalence --offline

echo "== shard scaling gate (4 shards >= 1.6x one shard, virtual clock, release) =="
cargo test -q -p rpf-serve --test shard_scaling_gate --release --offline

echo "== capacity planner round-trip (perfmodel plan vs sharded replay) =="
cargo test -q -p rpf-perfmodel --test capacity --offline

echo "== serving conservation properties (threaded scheduler + virtual-clock replay) =="
cargo test -q -p rpf-serve --test scheduler_props --offline

echo "== serving metrics golden (virtual-clock replay, incl. swap trace) =="
cargo test -q -p rpf-serve --test metrics_golden --offline

echo "== lifecycle hot-swap (zero-downtime swap, shadow promote/rollback) =="
cargo test -q -p rpf-serve --test lifecycle_swap --offline

echo "== serving soak smoke (<= 10 s) =="
cargo test -q -p rpf-serve --test soak_smoke --offline

echo "== gateway HTTP parser properties (torn reads, pipelining, byte soup) =="
cargo test -q -p rpf-gateway --test http_parser_props --offline

echo "== gateway wire golden (/metrics bytes == exporter output) =="
cargo test -q -p rpf-gateway --test wire_golden --offline

echo "== gateway response equivalence (JSON over TCP == direct engine, bitwise) =="
cargo test -q -p rpf-gateway --test response_equivalence --offline

echo "== gateway fault matrix (slow-loris, disconnect, 429 burst, drain, keep-alive resend, oversized request) =="
cargo test -q -p rpf-gateway --test gateway_faults --offline

echo "== gateway SSE streams (live + replay + terminal event) =="
cargo test -q -p rpf-gateway --test sse_stream --offline

echo "== gateway soak smoke over real sockets (<= 10 s) =="
cargo test -q -p rpf-gateway --test gateway_soak --offline

echo "== obs unit suite (registry, spans, ops, exporters) =="
cargo test -q -p rpf-obs --offline

echo "== obs recording properties (concurrent == sequential totals) =="
cargo test -q -p rpf-obs --test registry_props --offline

echo "== obs export golden (bucket edges + exporter bytes) =="
cargo test -q -p rpf-obs --test export_golden --offline

echo "== engine observability (registry counters, phase spans) =="
cargo test -q -p ranknet-core --test engine_obs --offline

echo "== obs disabled-overhead gate (kernels read the clock only via rpf_obs::ops::start; start + record < 1% of decode, release) =="
echo "-- kernel clock check: no Instant::now or counters:: in crates/tensor/src"
if grep -rnE 'Instant::now|counters::' crates/tensor/src; then
  echo "kernel clock check failed: time kernels with rpf_obs::ops::start / ops::record" >&2
  exit 1
fi
cargo test -q -p rpf-bench --test obs_overhead --release --offline

echo "== decode perf gate (batched beats the tape reference, > 3.4x at batch 16, > 5.5x at 100, release) =="
cargo test -q -p rpf-bench --test decode_perf_gate --release --offline

echo "== scenario properties (per-family determinism, physicality, tyre aging) =="
cargo test -q -p rpf-racesim --test scenario_props --offline

echo "== scenario goldens (IndyCar bit-equal to legacy, family shape bands) =="
cargo test -q -p rpf-racesim --test scenario_golden --offline

echo "== feature-schema compatibility (v2 artifacts load + serve, incl. ModelStore) =="
cargo test -q -p ranknet-core --test schema_compat --offline

echo "== scenario-mixed serving workload (labels off the wire, every family served) =="
cargo test -q -p rpf-serve --test scenario_mix --offline

echo "== cross-scenario bench smoke (4 models x 4 families end to end, release) =="
cargo test -q -p rpf-bench --test scenario_smoke --release --offline

echo "== benchmark builds and runs (perfbench, locked lockfile, every workload 2 s traced, release) =="
cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
for workload in live_wire race_replay train_epochs; do
  cargo run -q --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 1
done

echo "== cargo test (workspace) =="
cargo test -q --workspace --offline

echo "== cargo test (fault-inject matrix) =="
cargo test -q -p rpf-nn --features fault-inject --offline
cargo test -q -p ranknet-core --features fault-inject --offline
cargo test -q -p rpf-serve --features fault-inject --offline

echo "== lifecycle + shard fault matrix (panic mid-swap, torn publish, corrupt checksum, shard kill/poison, flat-region worker kill, aborted rolling swap) =="
cargo test -q -p rpf-serve --test fault_inject --features fault-inject --offline

echo "CI green."
