#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload query-large --seed 1 --seconds 50 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Build output goes to standard error; standard output
carries only the benchmark's report, whose last line is one JSON object.
The exit code is the benchmark's: non-zero when the build fails, when an
output fails a correctness check, or when a run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("query-large", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, cwd, env, timeout, stdout):
    """Runs cmd to completion; on timeout kills it and waits for it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", manifest, "--bin", "moqo-perfbench",
    ]
    code = run(build, root, env, BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print(f"run.py: build failed with exit code {code}", file=sys.stderr)
        return code

    binary = os.path.join(target, "release", "moqo-perfbench")
    sys.stdout.flush()
    return run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        root, env, RUN_TIMEOUT_S, sys.stdout,
    )


if __name__ == "__main__":
    sys.exit(main())
