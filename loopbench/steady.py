#!/usr/bin/env python3
"""Steadiness check of the loopbench benchmark: run two sets of runs of the same
build and compare them against the bounds in BENCHMARK.json.

usage: python3 loopbench/steady.py [--runs 10]

Run from the repository root. Each of the two sets runs every workload --runs
times, with seeds 1, 2, ..., --runs and the run length from BENCHMARK.json. For
every workload and end-to-end metric it prints each set's per-run values, its
median and its interquartile range (as a share of the median, from
statistics.quantiles(values, n=4)), and whether
  * each set's spread is within the metric's bound,
  * the two medians differ by no more than the bound, in either direction,
  * user_labels and repair_f1 repeat exactly, seed by seed,
  * the share of failed operations is the same in both sets.
Exits 1 if any of these does not hold or a run fails.
"""
import argparse
import json
import statistics
import subprocess
import sys

SETS = 2
EXACT = ("user_labels", "repair_f1")  # deterministic: must repeat per seed


def run_once(config, workload, seed):
    command = config["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(config["run_seconds"]),
                                   "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        config = json.load(f)
    workloads = [w["name"] for w in config["workloads"]]
    seeds = range(1, args.runs + 1)

    results = {w: [] for w in workloads}  # per workload: one list per set
    for set_no in range(SETS):
        for workload in workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(config, workload, seed))
                print(f"set {set_no + 1} {workload} seed {seed}: "
                      f"correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
            results[workload].append(runs)

    ok = True
    for workload in workloads:
        sets = results[workload]
        print(f"\n{workload}")
        print(f"  {'metric':16s}" + "".join(
            f"  {'median' + str(k + 1):>12s} {'iqr' + str(k + 1):>7s}"
            for k in range(SETS)) + "  bound  verdict")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            stats = [spread(v) for v in values]
            first = stats[0][0]
            verdicts = []
            for k, (median, iqr) in enumerate(stats):
                if iqr > bound:
                    verdicts.append(f"iqr{k + 1}>bound")
                if k > 0 and abs(median - first) > bound * abs(first):
                    verdicts.append(f"median{k + 1} off by {(median - first) / first:+.1%}")
            if name in EXACT and any(v != values[0] for v in values):
                verdicts.append("per-seed values differ")
            ok = ok and not verdicts
            print(f"  {name:16s}" + "".join(
                f"  {median:12.5g} {iqr:7.1%}" for median, iqr in stats) +
                f"  {bound:5.2f}  {'agree' if not verdicts else ', '.join(verdicts)}")
            for k, v in enumerate(values):
                print(f"    set {k + 1}: " + " ".join(f"{x:.5g}" for x in v))
        shares = [[r["failed"] / r["attempted"] for r in runs] for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = all(s == shares[0] for s in shares)
        ok = ok and correct and same_share
        print(f"  failed share per run identical across sets: {same_share}; "
              f"all runs correct: {correct}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
