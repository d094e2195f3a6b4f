"""Run the benchmark over several seeds and print every metric with its spread.

    python3 bench/report.py
    python3 bench/report.py --out bench/baseline.json

Every workload runs at seeds 1..10 for BENCHMARK.json's run_seconds.  For
each workload and end-to-end metric this prints the sample count, the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the metric's bound from BENCHMARK.json,
flagged when the spread exceeds the bound, then the verdict of every
operation grouped by outcome.  A traced run at seed 0 adds the per-layer
metrics.  Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    ops = [l for l in lines if l.startswith("op ")]
    return env, ops, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(metric_specs, results):
    """Rows of (name, unit, n, median, q1, q3, spread, bound) over the runs."""
    rows = []
    for m in metric_specs:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        spread = (q3 - q1) / abs(med) if med else 0.0
        rows.append((m["name"], m["unit"], len(vals), med, q1, q3, spread, m.get("bound")))
    return rows


def outcome(op_line):
    """'op cli/verify: error (1.1 s) exit 2' -> 'cli/verify: error exit 2'."""
    head, _, rest = op_line[3:].partition(" (")
    detail = rest.partition(") ")[2]
    status = head.rsplit(": ", 1)[1]
    return head if status == "ok" else f"{head} {detail}"


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", help="also write every run's result to this JSON file")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    record = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            env, ops, res = run_once(spec, w, seed, seconds, 0)
            runs.append({"seed": seed, "env": env, "ops": ops, **res})
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in res["metrics"].items()),
                file=sys.stderr, flush=True)
        entry = {"runs": runs, "end_to_end": summarize(spec["end_to_end"], runs)}
        print(f"\n== {w}  ({len(runs)} runs, seeds {SEEDS[0]}..{SEEDS[-1]}, "
              f"env {json.dumps(runs[0]['env'])})")
        print(f"  {'metric':14s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, unit, n, med, q1, q3, spread, bound in entry["end_to_end"]:
            flag = "" if spread <= bound else "  SPREAD ABOVE BOUND"
            print(f"  {name:14s} {unit:6s} {n:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.3f}{flag}")
        tally = Counter(outcome(op) for r in runs for op in r["ops"])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  operations: {attempted} attempted, {failed} failed "
              f"(fail_ratio {failed / attempted:.4f}), correct in "
              f"{sum(r['correct'] for r in runs)}/{len(runs)} runs")
        for what, n in sorted(tally.items()):
            print(f"    {n:4d} x {what}")
        env, ops, res = run_once(spec, w, 0, seconds, 1)
        entry["traced"] = {"seed": 0, "env": env, "ops": ops, **res}
        print("  per-layer (traced run, seed 0):")
        for name, v in res["metrics"].items():
            print(f"    {name:30s} {v['value']:14.6g} {v['unit']}")
        record["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
