#!/usr/bin/env python3
"""Determinism test: a seed fixes the workload exactly.

    python3 perfbench/test_digest.py [--workload capture_seal] [--seed 7]

Runs perfbench/run.py twice with the same seed (and once with another)
and compares the `workload_digest` lines. The digest covers the request
universe and draw streams, the exact single-threaded probe, descent and
row counts of the reference pass, the captured rows, and the final
store's bytes and rows. It must repeat exactly for one seed and change
with the seed. Exits 0 on success. Run from the root of a checkout.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("run.py exited with %d:\n%s" % (proc.returncode,
                                                  proc.stderr[-2000:]))
    lines = [l for l in proc.stderr.splitlines()
             if l.startswith("workload_digest ")]
    if len(lines) != 1:
        sys.exit("expected one workload_digest line, got %d" % len(lines))
    return lines[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="capture_seal")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    first = digest(args.workload, args.seed)
    second = digest(args.workload, args.seed)
    other = digest(args.workload, args.seed + 1)
    print(first)
    print(second)
    print(other)
    if first != second:
        sys.exit("FAIL: the digest of seed %d did not repeat" % args.seed)
    if first.split()[3] == other.split()[3]:
        sys.exit("FAIL: seeds %d and %d gave the same digest"
                 % (args.seed, args.seed + 1))
    print("PASS: digest repeats for seed %d and changes with the seed"
          % args.seed)


if __name__ == "__main__":
    main()
