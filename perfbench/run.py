#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_designs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the systolize library, the systolize
CLI and the load generator in Release under .bench_build/perfbench; later
runs only check that the build is current. Build output goes to stderr, so
the last line on stdout is the load generator's JSON result.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("cold_designs", "serve_warm", "serve_size_churn")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(".bench_build", "run")
# Each run is kept under 180 s: the load generator gets what the build
# check left of that, minus a margin for start-up and clean-up.
RUN_BUDGET_S = 170


def build(root):
    """Configure once, then bring the Release build up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(root, BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=root, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs,
         "--target", "perfbench_load", "systolize_cli"],
        cwd=root, stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the benchmark's own machinery and exit")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    start = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no systolize sources (src/) next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    load = os.path.join(BUILD_DIR, "perfbench_load")
    if args.self_test:
        return subprocess.run([load, "--self-test", "--designs", "designs"],
                              cwd=root).returncode
    scratch = os.path.join(root, SCRATCH_DIR)
    os.makedirs(scratch, exist_ok=True)
    # Run directories of a generator that was killed before its clean-up.
    for stale in glob.glob(os.path.join(scratch, "serve-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [load, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD_DIR, "systolize", "tools", "systolize"),
           "--designs", "designs", "--scratch", SCRATCH_DIR]
    budget = max(RUN_BUDGET_S - (time.monotonic() - start), 30)
    try:
        # The generator kills its daemons itself (and they die with it).
        return subprocess.run(cmd, cwd=root, timeout=budget).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {budget:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
