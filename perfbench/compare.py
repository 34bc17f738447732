#!/usr/bin/env python3
"""Runs two sets of benchmark runs of the same build and compares them.

    python3 perfbench/compare.py [--runs 10]

For every workload in BENCHMARK.json it makes --runs untraced runs per set,
each with its own seed (set 1 uses seeds 1..N, set 2 seeds N+1..2N), and
prints per end-to-end metric each set's median and spread (interquartile
range over median, statistics.quantiles(n=4)), and whether the second
median is within the metric's bound of the first. It also prints the
attempted and failed transaction counts of each set. Exits 1 if any spread
(setup_s excepted) exceeds its bound, any median disagrees, the failed
shares differ, or a run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config, workload, seed, seconds):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(2):
            results = []
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                results.append(run_once(config, workload, seed, seconds))
            sets.append(results)
        print(f"== {workload}")
        for s, results in enumerate(sets):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            correct = all(r["correct"] for r in results)
            ok &= correct
            print(f"   set {s + 1}: attempted {attempted}, failed {failed}, "
                  f"all correct: {correct}")
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in sets}
        if len(shares) > 1:
            print("   failed shares differ between sets")
            ok = False
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                sp = spread(values)
                if name != "setup_s" and sp > bound:
                    ok = False
                cols.append((statistics.median(values), sp))
            line = "   %-18s" % name + "".join(
                "  median %12.6g spread %6.3f" % c for c in cols)
            first, second = cols[0][0], cols[1][0]
            worse = (second - first) / first
            if metric["better"] == "higher":
                worse = -worse
            agree = worse <= bound
            ok &= agree
            line += "  %+.3f %s" % (worse, "agree" if agree else "DISAGREE")
            line += "  (bound %.2f)" % bound
            print(line)
        sys.stdout.flush()
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
