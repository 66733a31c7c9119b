#!/usr/bin/env python3
"""Build the perfbench driver from this checkout and run one workload.

    python3 perfbench/run.py --workload render_orbit --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The library under test is compiled from ../src with the benchmark's own
CMake project into .bench_build/perfbench (build output goes to
stderr). The driver's JSON result is the last line of stdout.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Fewer compile jobs than the 4 cores of the reference host, so a
# concurrent build leaves a core free and memory stays modest.
JOBS = "3"


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "renderer.hpp")):
        sys.stderr.write("perfbench: no asdr sources under %s\n" % ROOT)
        return False
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", JOBS]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) == 0


def main(argv):
    if argv == ["--selftest"]:
        if not build("test_bench_math"):
            return 1
        return subprocess.call([os.path.join(BUILD, "test_bench_math")])
    if not build("perfbench"):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    return subprocess.call([os.path.join(BUILD, "perfbench")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
