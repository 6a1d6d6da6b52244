#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload mixed-gateway --seed 42 --seconds 10 --trace 0

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` at the repository root), runs one workload, and
relays its output. The last line of standard output is the result JSON
object; the exit code is non-zero when the build fails, the run fails,
or an answer is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mixed-gateway", "small-flood", "batch-routed", "mixed-routed", "paper-zoo"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: run: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0 or not lines:
        return run.returncode or 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        print("error: malformed or incorrect result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
