#!/usr/bin/env bash
# Hermetic CI pass: build, test, and bench-smoke the whole workspace
# with zero network/registry access. Fails if any dependency would be
# resolved from a registry rather than a workspace path.
#
# Each stage prints its wall-clock on completion (`-- <stage>: Ns`), so
# a slow CI run is attributable to a stage rather than the whole script.
set -euo pipefail

cd "$(dirname "$0")/.."

CURRENT_STAGE=""
STAGE_T0=0
stage_end() {
  if [ -n "$CURRENT_STAGE" ]; then
    echo "-- ${CURRENT_STAGE}: $((SECONDS - STAGE_T0))s"
  fi
}
stage() {
  stage_end
  CURRENT_STAGE="$1"
  STAGE_T0=$SECONDS
  echo "== ${CURRENT_STAGE} =="
}

stage "dependency graph is workspace-only"
# With no lockfile entries for registry crates, --offline resolution
# succeeds only if every dependency is a path dependency. Double-check
# explicitly so a reintroduced crates.io dep fails loudly here.
if cargo metadata --format-version 1 --offline --no-deps \
    | grep -o '"source":"[^"]*"' | grep -qv '"source":null'; then
  echo "error: non-path dependency in the workspace graph" >&2
  exit 1
fi
if grep -o '"source":[^,]*' Cargo.lock 2>/dev/null | grep -q 'registry'; then
  echo "error: Cargo.lock references a registry" >&2
  exit 1
fi

stage "cargo build --release --offline"
cargo build --workspace --release --offline

stage "benchmark package builds against the workspace crates"
# ndbench is a separate package (its own workspace) that calls the
# crates' public API; building it here makes an API change that breaks
# the benchmark fail in CI instead of at benchmark time.
cargo build --release --offline --manifest-path ndbench/Cargo.toml

stage "rustdoc: no broken or private intra-doc links"
# Deleting or privatizing an item must not leave a doc link dangling;
# rustdoc only warns about that, so deny its warnings here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

stage "cargo test --offline"
cargo test -q --workspace --offline

stage "differential taint oracle (pinned case count)"
# The testkit derives per-property seed streams deterministically from
# the property name, so a fixed case count IS a pinned run: the same
# >=200 generated ARM/Thumb programs (writeback, LDM/STM, SMC,
# conditional execution) are checked against the reference engine
# every time. (TESTKIT_SEED is for replaying a single failing case —
# do not set it here, it would shrink the run to one case.)
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-core \
  --test oracle_prop --test oracle_regression
TESTKIT_CASES=256 cargo test -q --offline -p ndroid-apps --test oracle_gallery

stage "batch farm: 4-worker merge must match the sequential golden"
# Runs the farm over the gallery + a pinned 32-sample corpus shard,
# sequentially and at 4 workers, and exits non-zero unless the merged
# BatchReport (and its rendering) is byte-identical.
cargo run -q --release --offline -p ndroid-bench --bin exp_batch -- --workers 4

stage "provenance: gallery leak paths must match the golden transcript"
# Runs each pinned gallery case at Level::Full and diffs every
# reconstructed source->JNI->native->sink path against the checked-in
# golden (crates/bench/src/bin/exp_provenance_golden.txt).
cargo run -q --release --offline -p ndroid-bench --bin exp_provenance

stage "adversarial corpus: detection matrix, scoring harness, leak-path golden"
# The adversarial regression wall (pinned detection matrix, engine
# bit-identity, provenance coverage, SMC invalidation counters, and the
# TESTKIT_CASES-scaled mutated-spec property) plus the false-positive
# control, then the exp_adversarial gate: the full corpus through the
# 4-worker farm must score recall 1.0 / precision 1.0 and its score
# matrix + leak-path transcript must match the checked-in golden
# (crates/bench/src/bin/exp_adversarial_golden.txt).
TESTKIT_CASES="${TESTKIT_CASES:-256}" cargo test -q --offline -p ndroid-apps \
  --test adversarial_regression --test score_harness
cargo run -q --release --offline -p ndroid-bench --bin exp_adversarial
# The same gate on the uncached Stepper engine: the per-instruction
# tracer must reproduce the identical score matrix and transcript.
cargo run -q --release --offline -p ndroid-bench --bin exp_adversarial -- --engine stepper

stage "provenance store: fleet query transcript must match the golden"
# Runs the gallery + adversarial corpus through the farm with the
# provenance store sealing every 4 events and diffs the rendered cross-run
# ProvQuery results (plus per-job segment/decode counters) against the
# checked-in golden (crates/bench/src/bin/exp_prov_query_golden.txt).
# Re-bless with `--bless` after an intentional corpus or wire-format
# change.
cargo run -q --release --offline -p ndroid-bench --bin exp_prov_query

stage "resident service: drained report must match the offline merge"
# Boots the AnalysisService at 4 workers, submits the pinned corpus
# shard on the bulk lane and the gallery + adversarial corpus on the
# interactive lane while workers run, and exits non-zero unless the
# drained BatchReport (and its rendering) is byte-identical to the
# offline run_batch merge over the same jobs in submission order. Also
# smoke-checks the streaming path (every ticket answered exactly once).
cargo run -q --release --offline -p ndroid-bench --bin exp_service -- --workers 4

stage "snapshot fan-out: 1000 forked sessions must match 1000 fresh boots"
# Fans 1000 monkey schedules over the gated-leak app twice — re-booting
# per session vs forking every session from one warmed copy-on-write
# image per worker — and exits non-zero unless the merged BatchReports
# (and their renderings) are byte-identical. The snapshot determinism
# wall (fork == fresh across engines, SMC-after-fork) runs with the
# workspace tests above; this gate is the at-scale end-to-end check.
cargo run -q --release --offline -p ndroid-bench --bin exp_snapshot -- --sessions 1000 --workers 4

stage "bench smoke pass (TESTKIT_BENCH_SMOKE=1)"
BENCH_DIR="$(mktemp -d)"
TESTKIT_BENCH_SMOKE=1 TESTKIT_BENCH_DIR="$BENCH_DIR" \
  cargo bench -q --offline -p ndroid-bench
for f in BENCH_cfbench.json BENCH_ablations.json BENCH_taint.json BENCH_oracle.json BENCH_batch.json BENCH_provenance.json BENCH_adversarial.json BENCH_blocks.json BENCH_snapshot.json BENCH_service.json; do
  if [ ! -s "$BENCH_DIR/$f" ]; then
    echo "error: bench smoke did not produce $f" >&2
    exit 1
  fi
  # Reject truncated/malformed reports: every suite JSON carries a
  # "results" array and at least one named benchmark.
  if ! grep -q '"results"' "$BENCH_DIR/$f" || ! grep -q '"median_ns"' "$BENCH_DIR/$f"; then
    echo "error: $f is malformed (missing results)" >&2
    exit 1
  fi
done
# The provenance suite additionally records the sealed-segment scalars
# the compression gate is stated in terms of; the bench binary itself
# asserts bytes_per_event stays at or under 40% of the in-memory
# ProvEvent size.
for key in bytes_per_event events_per_sec; do
  if ! grep -q "\"name\": \"$key\"" "$BENCH_DIR/BENCH_provenance.json"; then
    echo "error: BENCH_provenance.json is missing the $key metric" >&2
    exit 1
  fi
done
rm -rf "$BENCH_DIR"

stage_end
echo "== CI pass complete =="
