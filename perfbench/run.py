#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload net_hot --seed 1 --seconds 10 --trace 0

The first call configures and builds `.bench_build/perfbench/` (CMake,
Release); later calls only re-run the incremental build. Build output goes
to stderr so that the last line of stdout is the benchmark's JSON result.
Every argument is passed through to the `perfbench` binary; see
perfbench/README.md for the workloads and metrics.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "analytics",
                                       "sharded_counter_store.h")):
        sys.stderr.write("perfbench: countlib sources (src/) not found next "
                         "to perfbench/; run from a full checkout\n")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs],
                           stdout=sys.stderr) == 0


def disable_aslr():
    """Turns off address-space randomization for the exec'd benchmark.

    With it on, the same run lands its allocations on different page
    boundaries each time, which moves RSS by a few pages per run; off, the
    layout and so the RSS metric repeat. Best effort: a kernel or sandbox
    that refuses leaves the benchmark running with ASLR.
    """
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def main():
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    exe = os.path.join(BUILD_DIR, "perfbench")
    sys.stdout.flush()
    disable_aslr()
    # Replace this process: the workload then runs as the only process.
    os.execv(exe, [exe] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())
