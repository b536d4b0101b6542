#!/usr/bin/env python3
"""Builds the repository benchmark from source, then runs it.

Usage (from the repository root):

    python3 crbench/run.py --workload cold_restart --seed 1 --seconds 20 --trace 0

The simulator library (../src) and the driver (src/ here) are built with
CMake into .bench_build/crbench under the repository root; build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. See README.md in this directory for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE.parent / ".bench_build" / "crbench"


def build() -> bool:
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", *generator, "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "crbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    if not build():
        print("crbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(BUILD / "crbench"), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
