#!/usr/bin/env python3
"""Build and run the MIRABEL hierarchy benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload day_ahead --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one invocation of the benchmark binary and
relays its output. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 1` the span records are written beside the build, as
`perfbench-spans-<workload>-<seed>.jsonl`.

Exit codes: 0 when every output check passed, 1 when a check failed,
2 on a usage error or when the repository sources are missing, 3 when
the build or the run failed or timed out.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
REQUIRED_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["day_ahead", "dense_replan", "storm"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args()


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main():
    args = parse_args()
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        fail(2, "run from the repository root (perfbench/Cargo.toml not found)")
    if not os.path.isdir(os.path.join(root, "crates", "edms")):
        fail(2, "the repository sources (crates/) are missing; nothing to build")

    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Cargo's output goes to stderr so that stdout ends with the result.
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, f"build failed: {e}")
    if built.returncode != 0:
        fail(3, f"build failed with exit code {built.returncode}")

    binary = os.path.join(target, "release", "mirabel-perfbench")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        spans = os.path.join(target, f"perfbench-spans-{args.workload}-{args.seed}.jsonl")
        cmd += ["--trace-out", spans]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, f"benchmark run failed: {e}")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != REQUIRED_KEYS:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, f"benchmark printed no result (exit code {run.returncode})")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
