#!/usr/bin/env python3
"""Builds and runs the rfidsched end-to-end benchmark.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the repository root.  The first call configures and builds the
harness (CMake, Release) next to the library sources it benchmarks; later
calls only rebuild what changed.  The build goes to $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), generated inputs to .../e2ebench-work, and a
traced run's span files to .../e2ebench-trace/<workload>.*.  The harness
prints the result object as the last line of stdout; build output and the
per-metric sample counts go to stderr.  See e2ebench/README.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("site_100k", "verified_8k", "stream_500", "service_mix")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no rfidsched sources (CMakeLists.txt, src/) in {ROOT}")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "rfidsched_e2e", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "rfidsched_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    exe = build(out / "e2ebench")
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(out / "e2ebench-work")]
    if args.trace == "1":
        trace_dir = out / "e2ebench-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_dir / args.workload)]
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
