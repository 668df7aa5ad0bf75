#!/usr/bin/env python3
"""Runs the bufferq benchmark on one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles the checkout's src/) into .bench_build/perfbench;
later calls only let the build tool confirm it is up to date.  Build output
goes to stderr, so the last stdout line stays the benchmark's result object.
Workloads, metrics and the output checks are described in perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference_digests.txt")
MAX_BUILD_JOBS = 4


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {os.path.join(ROOT, 'src')}; "
                           "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found on PATH")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr, env=env)
    jobs = str(max(1, min(MAX_BUILD_JOBS, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def main(argv):
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary, *argv, "--reference", REFERENCE]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
