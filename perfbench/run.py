#!/usr/bin/env python3
"""Build the RustBrain CLI and the perfbench binary from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <batch-cold|batch-warm|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Both builds go to $CARGO_TARGET_DIR (default: .bench_build at the root).
Build output goes to standard error; the benchmark's standard output is passed
through, and its last line is the run's JSON result.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("batch-cold", "batch-warm", "serve-mixed")
# A run must end within 180 s; stop it with time to spare.
RUN_TIMEOUT_S = 170


def build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for needed in ("Cargo.toml", "Cargo.lock", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(["--bin", "rustbrain"], target)
        build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rustbrain", os.path.join(release, "rustbrain"),
    ]
    # Own process group, so a run past its time takes its daemon with it.
    proc = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
