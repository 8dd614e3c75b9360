#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of the repository):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (Release). Build output goes to
standard error, so the last line of standard output is the benchmark's
result object. Exits non-zero when the build or the run fails.
"""
import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "spade_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 2
    binary = os.path.join(build, "spade_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
