#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 servebench/run.py --workload point_inproc --seed 1 --seconds 10 --trace 0

Builds servebench/ (which builds the repository's selnet library from
source) into $CARGO_TARGET_DIR/servebench, default .bench_build/servebench,
then runs `servebench` (--trace 0) or `servebench_traced` (--trace 1). Build
output goes to stderr; the benchmark's own stdout is passed through, so the
last stdout line is its JSON result. A build failure or a benchmark that dies
on a signal exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "servebench", "servebench_traced"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    root = os.getcwd()
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target_dir, "servebench")
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(build_dir,
                          "servebench_traced" if args.trace else "servebench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(root)] + extra
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("servebench: run exceeded %d s, killed" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    if code < 0:
        # A crash is a failed run, reported with its signal; never retried.
        print("servebench: run failed with signal %s" % signal.Signals(-code).name,
              file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
