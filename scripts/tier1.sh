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

# The statistics, probe, copy, read-path, miss, teardown, thread, static,
# knob (no XDB_* name in the code, the scripts or a README table row),
# environment (no non-test `std::env` in the library crates) and parser
# dependency (the SQL crate depends on no telemetry) censuses read the
# sources in process: tests/source_census.rs, run by `cargo test` above.
# The drift, calibrate and replay smokes (the checked-in BENCH_history/
# compares clean against itself; the calibrate report's five tables; a
# fresh fig9 history feeds replay's learned arm and self-compares clean
# under a 25% flip budget) run in process too:
# crates/bench/tests/record_file.rs.

# Bench regression gate: re-measure the deterministic monitor workload and
# the TD1 profile, and fail on threshold regressions against
# BENCH_monitor.json or on drift against BENCH_history/. Both re-runs take
# about a second each with the release build above.
scripts/bench_gate.sh
