#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workloads served_mix,batch_sealed \\
        --seeds 1-10 [--seconds N] [--trace 0]

Runs perfbench/run.py once per (workload, seed), then prints for every
metric its median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound in BENCHMARK.json. A spread above a third of the bound is
flagged: the benchmark is then not steady enough to resolve that bound.
Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                sys.exit("%s seed %d: exit %d" % (workload, seed,
                                                  proc.returncode))
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit("%s seed %d: incorrect result" % (workload, seed))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in
                 result["metrics"].items()})), flush=True)
        for name in sorted(values):
            v = values[name]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
                steady = False
            print("%-14s %-20s median %-14.6g spread %.4f bound %s%s" % (
                workload, name, med, spread, bound, flag), flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
