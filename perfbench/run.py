#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> [--seconds <s>] --trace <0|1>

Workloads: paper_sweep, metro_event_10k, metro_epoch_512 (the last is
not in BENCHMARK.json, see README.md). With
``--trace 0`` the last line of standard output is the end-to-end result
(system allocator, no tracing); with ``--trace 1`` it is the per-layer
result of the traced binary. Cargo builds into ``$CARGO_TARGET_DIR``
(default ``.bench_build``); build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0x5672_5053
# The contract allows 180 s per invocation; leave room for the build check.
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench_traced" if args.trace else "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
