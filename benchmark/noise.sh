#!/usr/bin/env bash
# Does the benchmark repeat on this host?
#
# Two interleaved sets (A, B) of ten runs per workload of ONE build, a
# different seed per run. Prints, per end-to-end metric and workload, both
# medians, their symmetric relative difference, each set's spread
# (IQR/median, quartiles as statistics.quantiles(n=4) gives them) and the
# bound from BENCHMARK.json; beside round_ref_p50 the spread of the raw
# bench.round_ms_p50, and the shift of the reference kernel between sets.
#
# Exits non-zero when a difference or a spread exceeds its bound (the
# spread of setup_s is reported, not gated), when sim_ms_per_query,
# wire_kb_per_query or `attempted` differ at all across the runs of a
# workload, when bench.ref_ms_p50 shifts by more than 5% between the
# sets, or when a run is not correct.
#
# usage: benchmark/noise.sh        (results go to $OUT, default
#                                   benchmark/out/noise-<stamp>)
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=10
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
OUT=${OUT:-benchmark/out/noise-$(date +%Y%m%dT%H%M%S)}
TARGET=${CARGO_TARGET_DIR:-benchmark/target}

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="$TARGET/release/xdb-benchmark"
mkdir -p "$OUT"
echo "# noise.sh $(date -u +%Y-%m-%dT%H:%M:%SZ) runs=$RUNS seconds=$SECONDS_PER_RUN out=$OUT"

for i in $(seq 1 "$RUNS"); do
    for w in $WORKLOADS; do
        # Interleaved: A and B take turns, so both see the same phases of
        # the host; which of them goes first alternates.
        if (( i % 2 )); then order="A B"; else order="B A"; fi
        for set in $order; do
            if [ "$set" = A ]; then seed=$((1000 + i)); else seed=$((2000 + i)); fi
            "$BIN" --workload "$w" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0 \
                > "$OUT/$w.$set.$i.out" 2> "$OUT/$w.$set.$i.err" \
                || { echo "run failed: $w set $set run $i (see $OUT/$w.$set.$i.err)" >&2; exit 1; }
        done
    done
done

python3 - "$OUT" "$RUNS" $WORKLOADS <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
EXACT = ("sim_ms_per_query", "wire_kb_per_query")
REF_SHIFT_LIMIT = 0.05


def load(workload, which, i):
    lines = open(f"{out}/{workload}.{which}.{i}.out").read().strip().splitlines()
    result = json.loads(lines[-1])
    extras = {}
    for line in lines[:-1]:
        extras.update(json.loads(line).get("extras", {}))
    return result, extras


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


bad = []
print(f"{'workload':14} {'metric':19} {'median A':>13} {'median B':>13} {'diff':>7} "
      f"{'spread A':>8} {'spread B':>8} {'bound':>6}")
for w in workloads:
    sets = {s: [load(w, s, i) for i in range(1, runs + 1)] for s in "AB"}
    everything = sets["A"] + sets["B"]
    if not all(r["correct"] and r["failed"] == 0 for r, _ in everything):
        bad.append(f"{w}: a run was not correct")
    if len({r["attempted"] for r, _ in everything}) != 1:
        bad.append(f"{w}: attempted differs across runs")
    for name, bound in bounds.items():
        vals = {s: [r["metrics"][name]["value"] for r, _ in sets[s]] for s in "AB"}
        med = {s: statistics.median(vals[s]) for s in "AB"}
        spr = {s: spread(vals[s]) for s in "AB"}
        diff = abs(med["A"] - med["B"]) / ((med["A"] + med["B"]) / 2)
        flags = []
        if diff > bound:
            flags.append("DIFF")
        if name != "setup_s" and max(spr.values()) > bound:
            flags.append("SPREAD")
        if name in EXACT and len(set(vals["A"] + vals["B"])) != 1:
            flags.append("NOT-EXACT")
        print(f"{w:14} {name:19} {med['A']:13.4f} {med['B']:13.4f} {diff:7.2%} "
              f"{spr['A']:8.2%} {spr['B']:8.2%} {bound:6.3f} {' '.join(flags)}")
        bad += [f"{w}/{name}: {f}" for f in flags]
    raw = {s: [e["bench.round_ms_p50"]["value"] for _, e in sets[s]] for s in "AB"}
    ref = {s: [e["bench.ref_ms_p50"]["value"] for _, e in sets[s]] for s in "AB"}
    print(f"{w:14} {'(raw round_ms_p50)':19} {statistics.median(raw['A']):13.4f} "
          f"{statistics.median(raw['B']):13.4f} {'':7} {spread(raw['A']):8.2%} {spread(raw['B']):8.2%}")
    ra, rb = statistics.median(ref["A"]), statistics.median(ref["B"])
    shift = abs(ra - rb) / ((ra + rb) / 2)
    flag = "REF-SHIFT" if shift > REF_SHIFT_LIMIT else ""
    print(f"{w:14} {'(bench.ref_ms_p50)':19} {ra:13.4f} {rb:13.4f} {shift:7.2%} "
          f"{spread(ref['A']):8.2%} {spread(ref['B']):8.2%} {REF_SHIFT_LIMIT:6.3f} {flag}")
    if flag:
        bad.append(f"{w}: reference kernel shifted {shift:.2%} between the sets")

if bad:
    print("FAIL:")
    for b in bad:
        print("  " + b)
    sys.exit(1)
print("PASS: every difference and spread is within its bound")
EOF
