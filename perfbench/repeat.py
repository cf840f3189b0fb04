#!/usr/bin/env python3
"""Repeat-runner: runs each workload N times, one seed per run, and
prints each metric's median, quartiles and spread.

Run from the repository root:

    python3 perfbench/repeat.py [--workloads a,b] [--runs 10] [--trace 0|1]
                                [--save FILE]
    python3 perfbench/repeat.py --compare BASE NEW

Run i uses seed i (1..runs) and BENCHMARK.json's ``run_seconds``. The
spread is (Q3 - Q1) / median with Python's
``statistics.quantiles(values, n=4)``. With ``--trace 0`` each spread
must stay within the metric's ``bound`` in BENCHMARK.json and is
flagged against a third of it. ``--save`` writes the medians, and
``--compare`` checks two saved sets: each end-to-end median in NEW may
be worse than BASE's by at most the metric's bound. The exit status is
1 if any run failed, was incorrect, or broke one of these limits.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def worse_by(metric, base, new):
    """The share by which `new` is worse than `base` (negative: better)."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return -change if metric.get("better") == "higher" else change


def compare(spec, base, new):
    """Checks each median in `new` against `base`; True when none is
    worse by more than its metric's bound."""
    ok = True
    print(f"{'workload':18s} {'metric':16s} {'base':>14s} {'new':>14s} {'worse by':>9s}  verdict")
    for workload, medians in new.items():
        for name, med in medians.items():
            m, prev = spec.get(name), base.get(workload, {}).get(name)
            if m is None or prev is None:
                continue
            w = worse_by(m, prev, med)
            good = w <= m["bound"]
            ok &= good
            print(f"{workload:18s} {name:16s} {prev:14.6g} {med:14.6g} {w:+9.3f}  "
                  f"{'ok' if good else 'WORSE'} (bound {m['bound']})")
    return ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()

    if args.compare:
        spec = {m["name"]: m for m in bench["end_to_end"]}
        base, new = (json.load(open(f)) for f in args.compare)
        return 0 if compare(spec, base, new) else 1

    spec = {m["name"]: m for m in bench["end_to_end" if args.trace == 0 else "per_layer"]}
    saved, ok = {}, True
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in range(1, args.runs + 1):
            res = run_once(workload, seed, args.trace)
            if res is None or not res["correct"]:
                print(f"{workload} seed={seed}: run failed or incorrect: {res}")
                ok = False
                continue
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        ok &= failed == 0
        print(f"\n{workload}: {args.runs} runs, failed {failed}/{attempted}")
        print(f"{'metric':44s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}  verdict")
        saved[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            saved[workload][name] = med
            verdict = ""
            m = spec.get(name)
            if m and "bound" in m:
                good = spread < m["bound"] / 3
                verdict = f"spread {'<' if good else '>='} bound/3 ({m['bound'] / 3:.3f})"
                ok &= spread <= m["bound"]
            print(f"{name:44s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
