#!/usr/bin/env python3
"""Build the loopbench binary against the repository's gdr library, then run
one workload of the end-to-end repair-loop benchmark.

usage: python3 loopbench/run.py --workload <gdr-learn|nolearn-stream|service-spill>
                                --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/loopbench
(default .bench_build/loopbench); scratch files and traces go beside it. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, without a result, when the gdr
sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "loopbench")
    if not os.path.isfile(os.path.join(HERE, os.pardir, "src", "CMakeLists.txt")):
        print("loopbench: the gdr sources (src/) are not beside loopbench/; "
              "run from a full checkout", file=sys.stderr)
        return 1
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "loopbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("loopbench: build step failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "loopbench")
    command = [binary] + sys.argv[1:] + [
        "--work-dir", os.path.join(build_root, "work"),
        "--trace-dir", os.path.join(build_root, "traces")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
