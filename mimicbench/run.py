#!/usr/bin/env python3
"""Builds the MIMIC demo benchmark from ../src and runs it.

Usage (from the repository root):

    python3 mimicbench/run.py --workload clinic_read --seed 2015 --seconds 20 --trace 0
    python3 mimicbench/run.py --selfcheck
    python3 mimicbench/run.py --stale-repro

The build goes to .bench_build/mimicbench (RelWithDebInfo, the
repository's default build type); its output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Arguments after the script
name are passed to the benchmark binary unchanged.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mimicbench")
BINARY = os.path.join(BUILD, "mimicbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("mimicbench: no polystore sources at ../src", file=sys.stderr)
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        return 1
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("mimicbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
