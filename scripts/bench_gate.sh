#!/usr/bin/env bash
# Bench regression gate: re-run the deterministic monitor workload and
# compare it against the checked-in baseline (BENCH_monitor.json) via
# `repro gate`, then the drift gate against BENCH_history/. Exits non-zero
# when any gated series regressed past its threshold (simulated monitor
# values: +0.5%). Host time is gated by BENCHMARK.json, not here.
#
# Usage: scripts/bench_gate.sh (scripts/tier1.sh runs it on every pass).
# After an intentional behaviour change, re-baseline with
#   repro --sf 0.002 --runs 2 --json BENCH_monitor.json monitor
# The monitor baseline also carries the multi-tenant admission series
# (tenants/folded/..., tenants/unfolded/..., tenants/mean_fold_hits);
# `repro gate` re-runs both workloads at the shape the baseline records
# (sf, runs, and tenants/tenant_rounds whenever those keys are present)
# and exits 2 naming a field the baseline lacks. Since
# monitor schema v3 it additionally gates the cost-model observatory
# series — per-cell calibration error (.../cal_abs_err_pct), placement
# regret (.../regret_ms), and the per-codec byte split
# (.../codec_bytes/<codec>) — so a cost-model or codec skew fails here
# even when latency stays flat.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "bench_gate: re-running the monitor workload and comparing..."
cargo run -q --release -p xdb-bench --bin repro -- gate \
  --monitor-baseline BENCH_monitor.json

# Drift gate: re-run the TD1 profile with the history store on and
# compare the fresh records against the checked-in BENCH_history/
# baseline — plan flips, latency drift, critical-path composition
# shifts, and cost-model calibration drift fail with an attributed
# explanation. The fresh history dir is
# archived next to the BENCH_*.json snapshots for inspection.
# Re-baseline after an intentional change with
#   rm -rf BENCH_history && repro --sf 0.002 --history BENCH_history profile
echo "bench_gate: re-running the TD1 profile and checking for drift..."
rm -rf target/bench_gate_history
cargo run -q --release -p xdb-bench --bin repro -- \
  --sf 0.002 --history target/bench_gate_history profile --out /dev/null
cargo run -q --release -p xdb-bench --bin repro -- drift \
  --baseline BENCH_history --current target/bench_gate_history
