#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
perfbench/ -- and with it the repository libraries it links -- into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The exit code is the benchmark's: non-zero when a check failed or the build
did.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    """Configures (once) and builds `targets`; returns False on failure."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files here
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", BUILD, "--parallel",
                  str(os.cpu_count() or 2), "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if argv == ["--self-test"]:
        if not build(["perfbench_tests"]):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not build(["chronus_perfbench"]):
        return 1
    binary = os.path.join(BUILD, "chronus_perfbench")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
