#!/usr/bin/env python3
"""Build the benchmark if needed, then run one workload.

    python3 iotbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and compiles the
benchmark and the iotsim library (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs find it built. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The exit
code is the benchmark's (non-zero when the build fails).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir: str) -> int:
    os.makedirs(build_dir, exist_ok=True)
    # Runs that share a checkout build once; the others wait on the lock.
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            code = subprocess.run(configure, stdout=sys.stderr).returncode
            if code != 0:
                return code
        jobs = str(min(4, os.cpu_count() or 1))
        return subprocess.run(
            ["cmake", "--build", build_dir, "--target", "iotbench", "-j", jobs],
            stdout=sys.stderr,
        ).returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    code = build(build_dir)
    if code != 0:
        print(f"iotbench: build failed ({code})", file=sys.stderr)
        return code
    sys.stdout.flush()
    # The benchmark counts its own process start into setup_s from this
    # reading (CLOCK_MONOTONIC, the clock std::chrono::steady_clock reads).
    return subprocess.run(
        [
            os.path.join(build_dir, "iotbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--launched-ns", str(time.monotonic_ns()),
        ]
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
