#!/usr/bin/env python3
"""Builds and runs the provlin benchmark.

    python3 perfbench/run.py --workload served_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which builds the library from the checkout's own sources) in
an optimized build under $CARGO_TARGET_DIR, default .bench_build; later
calls only rebuild what changed. The benchmark's own output goes to
stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}, holding the metrics
BENCHMARK.json lists as end-to-end (--trace 0) or per-layer (--trace 1).

Exits non-zero without printing a result when the build fails, the build
is not optimized, or the benchmark fails to complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cmake_build_type(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build(build):
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    build_type = cmake_build_type(build)
    if build_type not in OPTIMIZED_BUILD_TYPES:
        sys.exit("run.py: refusing an unoptimized build (CMAKE_BUILD_TYPE=%r)"
                 % build_type)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build, "perfbench")


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("run.py: build failed: %s" % err)

    workdir = os.path.join(out, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py: benchmark exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result line")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    # The binary prints every figure it took; BENCHMARK.json decides which
    # are end-to-end (--trace 0) and which per-layer (--trace 1).
    names = listed_metrics(args.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit("run.py: benchmark did not report %s" % ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
