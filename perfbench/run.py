#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-msd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20 --trace 1   # every workload

The benchmark is built in release mode into $CARGO_TARGET_DIR (default
.bench_build). With --workload, the last line of standard output is the
run's JSON result. Without it, each workload runs in its own process and
a combined result closes the output. The exit code is nonzero when the
build, a run or a correctness check fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["train-msd", "serve-msd"]


def build(env):
    """Builds the benchmark and returns the path of its binary, or None."""
    cmd = [
        "cargo", "build", "--release", "--quiet", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as err:
        print(f"run.py: cannot start cargo: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return None
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")


def run_all(binary, args, env):
    """Runs every workload in turn and prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [binary, "--workload", workload] + args,
            env=env, stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            status = status or 1
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        return 1
    args = sys.argv[1:]
    if "--workload" not in args:
        return run_all(binary, args, env)
    return subprocess.run([binary] + args, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
