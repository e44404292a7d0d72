#!/usr/bin/env bash
# Tier-1 gate: everything must pass before a PR lands.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo build --release
cargo test -q
# The benchmark package sits outside the workspace (own lock file, path
# dependencies on crates/*): build and test it too, so that a renamed public
# function breaks here and not in the benchmark gate.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings

# Knob census: nothing reads an XDB_* variable (README "Environment
# variables"). Neither the code, these scripts nor a row of README's tables
# names one, so that no knob gets in unnoticed.
if grep -rnE 'XDB_[A-Z_]+' crates/*/src scripts || grep -nE '^\| `XDB_' README.md; then
  echo "an XDB_* variable is named" >&2
  exit 1
fi

# Environment census: the library is configured through its options alone
# (README "Environment"). No non-test code of the library crates reads the
# environment, directly or through a helper.
for f in $(grep -rlE 'std::env|env_number\(' crates/{sql,engine,net,obs,core,baselines,tpch}/src || true); do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'std::env|env_number\('; then
    echo "$f: library code reads the environment" >&2
    exit 1
  fi
done

# The parser logs nothing: the SQL crate depends on no telemetry.
if grep -n 'xdb-obs' crates/sql/Cargo.toml; then
  echo "crates/sql/Cargo.toml: the parser depends on the telemetry crate" >&2
  exit 1
fi

# The statistics, probe, copy, read-path, miss, thread and static censuses
# read the sources in process: tests/source_census.rs, run by `cargo test`
# above.

# Drift smoke test: the checked-in drift baseline must stay readable: a
# stricter reader or a schema change that strands BENCH_history/ fails
# here, not only in the bench gate. (That `repro profile` and `repro
# calibrate` render from those records what live runs print is held in
# process: crates/bench/tests/record_file.rs; bench_gate.sh below
# drift-compares a fresh profile against them.)
mkdir -p target
cargo run --release -q -p xdb-bench --bin repro -- drift \
  --baseline BENCH_history --current BENCH_history \
  | tee target/tier1-drift-baseline.txt
grep -q 'no drift' target/tier1-drift-baseline.txt

# Cost-model observatory smoke test: `repro calibrate` must render a
# non-empty report with the predicted-vs-observed error distributions per
# engine/codec/edge shape and the per-query placement-regret table.
cargo run --release -q -p xdb-bench --bin repro -- \
  --sf 0.002 --runs 2 calibrate --out target/tier1-calibrate.txt
grep -q 'cost-model observatory' target/tier1-calibrate.txt
grep -q 'prediction error by engine' target/tier1-calibrate.txt
grep -q 'by codec' target/tier1-calibrate.txt
grep -q 'by edge shape' target/tier1-calibrate.txt
grep -q 'per-query placement regret' target/tier1-calibrate.txt

# Learned cost-model smoke test: the feedback loop must keep result rows
# bit-identical while it re-prices plans, `replay`'s learned arm must
# price against a recorded history via --profiles, and a history compared
# against itself under a flip budget must stay clean. (That static pricing
# repeats itself is held in process: props_learned.rs.)
rm -rf target/tier1-profiles
cargo run --release -q -p xdb-bench --bin repro -- \
  --sf 0.002 --history target/tier1-profiles fig9 --out /dev/null
cargo run --release -q -p xdb-bench --bin repro -- \
  --sf 0.002 --profiles target/tier1-profiles replay \
  --out target/tier1-replay.txt
grep -q 'plan flips:' target/tier1-replay.txt
grep -q 'result rows: bit-identical across arms' target/tier1-replay.txt
cargo run --release -q -p xdb-bench --bin repro -- \
  --sf 0.002 replay --out target/tier1-replay-self.txt
grep -q 'result rows: bit-identical across arms' target/tier1-replay-self.txt
cargo run --release -q -p xdb-bench --bin repro -- drift \
  --baseline target/tier1-profiles --current target/tier1-profiles \
  --flip-rate 25 | tee target/tier1-drift-flip.txt
grep -q 'no drift' target/tier1-drift-flip.txt

# Bench regression gate: re-measure the deterministic monitor workload and
# the TD1 profile, and fail on threshold regressions against
# BENCH_monitor.json or on drift against BENCH_history/. Both re-runs take
# about a second each with the release build above.
scripts/bench_gate.sh
