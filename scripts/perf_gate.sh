#!/usr/bin/env bash
# Performance gate: the parent commit against the working tree on
# zerber_perf, the repository's one benchmark (BENCHMARK.json).
#
#   scripts/perf_gate.sh [--base REV] [--pairs N] [--first-seed S] [--workloads a,b,...] [--traced]
#                        [--json FILE]
#
# Builds zerber_perf twice — from a `git archive` of REV (default HEAD~1)
# and from the working tree — each into its own target directory under
# ${PERF_GATE_DIR:-${TMPDIR:-/tmp}/zerber-perf-gate}, then runs N (default
# 10) pairs per workload at BENCHMARK.json's `run_seconds`, untraced, pair i
# on seed S+i-1 (S = --first-seed, default 1: a claim is re-checked on seeds
# it was not written on by starting past them), alternating which side goes
# first.  Every run is printed as it finishes; at the end each end-to-end
# metric gets one row per workload: median and quartiles of both sides, the
# change's median against the parent's, in how many pairs the change read
# better, and a verdict: `WORSE` (see below), `better` (ten or more pairs,
# the change ahead in nine tenths of them, medians apart by more than the
# parent's interquartile range) or `ok`.
#
# With --json FILE the same rows are also written to FILE as JSON, one
# object per workload and metric, every reading divided by the parent's
# median: the parent's and the change's [q1, median, q3], the change/parent
# ratio, the pairs the change read better in and the verdict.  Absolute
# readings drift between sessions on one machine, ratios against a parent
# run in the same session do not, so a PR that claims a gain commits that
# file as BENCH_PR<N>.json: the repository's perf trajectory.
#
# With --traced, after the pairs each side runs once more per workload with
# `--trace 1` on seed 42, and every per-layer metric of BENCHMARK.json is
# printed as parent -> change: it shows which layer a change moved, and it
# is informational only (no verdict, no effect on the exit code).
#
# Exits 1 when, on any workload, a median is worse than the parent's by more
# than the metric's BENCHMARK.json bound, or any op failed a check on either
# side (a run that exits non-zero or prints no JSON counts as failed).
#
# One run at a time, 2 caller threads each: at 20 s phases a run takes about
# 30 s, so the default gate (4 workloads x 10 pairs x 2 sides) takes ~40 min.
# Nothing else should be running on the machine.

set -euo pipefail
cd "$(dirname "$0")/.."

BASE="HEAD~1"
PAIRS=10
FIRST_SEED=1
WORKLOADS=""
TRACED=0
JSON=""
while [ $# -gt 0 ]; do
  case "$1" in
    --base) BASE="$2"; shift 2 ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --first-seed) FIRST_SEED="$2"; shift 2 ;;
    --workloads) WORKLOADS="$2"; shift 2 ;;
    --traced) TRACED=1; shift ;;
    --json) JSON="$2"; shift 2 ;;
    *) echo "usage: $0 [--base REV] [--pairs N] [--first-seed S] [--workloads a,b,...] [--traced] [--json FILE]" >&2; exit 2 ;;
  esac
done

DIR="${PERF_GATE_DIR:-${TMPDIR:-/tmp}/zerber-perf-gate}"
BUILD=(cargo build --release --quiet --offline --manifest-path zerber_perf/Cargo.toml)

echo "==> parent: $(git rev-parse --short "$BASE") into $DIR/parent-src"
rm -rf "$DIR/parent-src"
mkdir -p "$DIR/parent-src"
# `git archive` stamps every file with the commit time, so cargo rebuilds
# the parent only when REV changes.
git archive "$BASE" | tar -x -C "$DIR/parent-src"
(cd "$DIR/parent-src" && CARGO_TARGET_DIR="$DIR/parent-target" "${BUILD[@]}")
echo "==> change: the working tree"
CARGO_TARGET_DIR="$DIR/change-target" "${BUILD[@]}"

exec python3 - "$DIR" "$PAIRS" "$WORKLOADS" "$FIRST_SEED" "$TRACED" "$JSON" "$(git rev-parse --short "$BASE")" <<'PY'
import json
import statistics
import subprocess
import sys

gate_dir, pairs = sys.argv[1], int(sys.argv[2])
only = set(filter(None, sys.argv[3].split(",")))
first_seed = int(sys.argv[4])
traced = sys.argv[5] == "1"
json_out, base = sys.argv[6], sys.argv[7]
seeds = range(first_seed, first_seed + pairs)
contract = json.load(open("BENCHMARK.json"))
seconds = str(contract["run_seconds"])
workloads = [w["name"] for w in contract["workloads"]]
if only - set(workloads):
    sys.exit(f"unknown workload(s): {', '.join(sorted(only - set(workloads)))}")
if only:
    workloads = [w for w in workloads if w in only]
metrics = contract["end_to_end"]
sides = ("parent", "change")


def run(side, workload, seed, trace=0):
    """One run; None when it exits non-zero or prints no JSON."""
    exe = f"{gate_dir}/{side}-target/release/zerber_perf"
    argv = [exe, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)]
    done = subprocess.run(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        line = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        line = None
    if done.returncode != 0 or line is None:
        print(f"{workload} seed {seed} {side}: exit {done.returncode}, no result", flush=True)
        return None
    if trace:
        return line
    shown = "  ".join(f"{m['name']}={line['metrics'][m['name']]['value']:.6g}" for m in metrics)
    print(
        f"{workload} seed {seed} {side}: failed {line['failed']}/{line['attempted']}"
        f"{'' if line['correct'] else ' INCORRECT'}  {shown}",
        flush=True,
    )
    return line


def quartiles(values):
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


broken = []
tables = []
summary = []
for workload in workloads:
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            runs[side].append(run(side, workload, seed))
    for side in sides:
        lost = sum(1 for r in runs[side] if r is None)
        failed = sum(r["failed"] for r in runs[side] if r is not None)
        wrong = sum(1 for r in runs[side] if r is not None and not r["correct"])
        if lost or failed or wrong:
            broken.append(f"{workload} {side}: {lost} runs lost, {failed} ops failed, {wrong} runs incorrect")
    paired = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    if not paired:
        continue
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r, _ in paired]
        c = [r["metrics"][name]["value"] for _, r in paired]
        (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
        wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
        worse = (c2 - p2) / p2 if lower else (p2 - c2) / p2
        verdict = "ok"
        if worse > m["bound"]:
            verdict = "WORSE"
            broken.append(f"{workload} {name}: median {p2:.6g} -> {c2:.6g}, bound {m['bound']:.0%}")
        elif len(paired) >= 10 and wins * 10 >= len(paired) * 9 and abs(c2 - p2) > p3 - p1:
            verdict = "better"
        rows.append(
            f"  {name:<28} {p2:>11.6g} [{p1:.6g}, {p3:.6g}]  ->  {c2:>11.6g} [{c1:.6g}, {c3:.6g}]"
            f"  x{c2 / p2:.3f}  {wins}/{len(paired)}  {verdict}"
        )
        summary.append({
            "workload": workload,
            "metric": name,
            "better": m["better"],
            "parent": [round(v / p2, 4) for v in (p1, p2, p3)],
            "change": [round(v / p2, 4) for v in (c1, c2, c3)],
            "ratio": round(c2 / p2, 4),
            "wins": wins,
            "pairs": len(paired),
            "verdict": verdict,
        })
    tables.append((workload, len(paired), rows))

traces = {w: {side: run(side, w, 42, trace=1) for side in sides} for w in workloads} if traced else {}

print()
print(f"median [q1, q3] parent -> change, change/parent, pairs the change read better in ({seconds} s phases)")
for workload, n, rows in tables:
    print(f"{workload} ({n} pairs, seeds {seeds[0]}-{seeds[-1]})")
    print("\n".join(rows))
if traces:
    print("\nper-layer metrics, one --trace 1 run per side on seed 42: parent -> change (informational)")
for workload, runs in traces.items():
    print(workload)
    for m in contract["per_layer"]:
        p, c = (r["metrics"][m["name"]]["value"] if r else float("nan") for r in (runs["parent"], runs["change"]))
        print(f"  {m['name']:<40} {p:>12.6g}  ->  {c:>12.6g} {m['unit']}")
if json_out:
    with open(json_out, "w") as out:
        json.dump({
            "base": base,
            "run_seconds": contract["run_seconds"],
            "seeds": [seeds[0], seeds[-1]],
            "readings": "each divided by the parent's median: [q1, median, q3]",
            "rows": summary,
        }, out, indent=1)
        out.write("\n")
if broken:
    print("\nperf gate: FAILED")
    print("\n".join(f"  {b}" for b in broken))
    sys.exit(1)
print("\nperf gate: OK")
PY
