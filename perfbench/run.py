#!/usr/bin/env python3
"""Builds bench_suite from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a fideslib checkout. The first run configures
and builds a Release tree in .bench_build/perfbench; later runs rebuild
only what changed. Build output goes to stderr. bench_suite's stdout is
passed through, and its last line is the JSON result. bench_suite
checks the arguments. With --trace 1, the Chrome trace goes to
.bench_build/traces/<workload>-seed<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_call(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("command failed: " + " ".join(cmd))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no fideslib sources beside perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        check_call(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "--target", "bench_suite", "-j", jobs])
    return os.path.join(BUILD, "bench_suite")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="16")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (args.workload, args.seed)
        if os.path.basename(name) != name:
            fail("--workload and --seed may not contain a path separator")
        cmd += ["--trace_out", os.path.join(traces, name)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 1)
    sys.exit(code)


if __name__ == "__main__":
    main()
