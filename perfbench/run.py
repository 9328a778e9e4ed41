#!/usr/bin/env python3
"""Build the simulator libraries and the perfbench driver, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <attack_sweep|observed_fleet>
                             --seed <n> --seconds <s> --trace <0|1>

The build is a Release CMake build of perfbench/CMakeLists.txt (which pulls in
../src) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench.
Build output goes to standard error; the driver's standard output is passed
through unchanged, so its last line is the JSON result. Exits non-zero without
a result when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns the driver's path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = os.path.join(out, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size (used by the benchmark's tests)")
    ap.add_argument("--break-check", choices=["verdict", "halt"],
                    help="corrupt one expectation (negative test)")
    args = ap.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    exe = build(out)
    if exe is None:
        return 1
    spans = os.path.join(out, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", args.seconds, "--trace", args.trace,
           "--out-dir", spans]
    if args.tiny:
        cmd.append("--tiny")
    if args.break_check:
        cmd += ["--break-check", args.break_check]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
