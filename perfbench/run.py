#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a Grapple checkout:

    python3 perfbench/run.py --workload spill --seed 1 --seconds 45 --trace 0

The benchmark program (perfbench/perfbench.cpp) and the Grapple libraries it
links are built in Release mode under .bench_build/ in the checkout; later
runs reuse that build. Every file the run writes stays under .bench_build/. The last
line of stdout is the JSON result; build output goes to stderr.
Exit status is 0 only when the build succeeded, the run finished and every
output was correct.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("spill", "service-mix")
BUILD_DIR = ".bench_build"
TARGET = "grapple_perfbench"
# Running any workload takes well under this; the first run also builds.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, env):
    """Configures (once) and builds the benchmark; returns the binary path."""
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a Grapple checkout: %s is missing" % needed)
    # Compilers and the benchmark put their temp files under the checkout too.
    run_dir = os.path.join(root, BUILD_DIR, "runs")
    tmp_dir = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        binary = build(root, env)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    with subprocess.Popen(cmd, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail("the %s run did not finish in %d s" % (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
