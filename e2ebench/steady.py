#!/usr/bin/env python3
"""Steadiness and determinism check for the end-to-end benchmark.

    python3 e2ebench/steady.py [--workloads a,b] [--seeds 10] [--gate]

For each workload, runs the benchmark once per seed (untraced, with
BENCHMARK.json's run length) and reports, per end-to-end metric, the median
and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, against the metric's
bound. It then runs the first seed again and requires the matrix, runbook
and suspect digests, mean_cluster_size and inspect_ases to repeat exactly,
and the share of failed operations to be the same in every run. With --gate
it also runs the worker-count gate (workers 1 and 2 on a reduced plan).
Exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("matrix", "runbook", "suspects", "mean_cluster_size", "inspect_ases")


def run(workload, seed, extra):
    command = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
               "--workload", workload, "--seed", str(seed)] + extra
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit("run failed: %s\n%s" % (" ".join(command), done.stderr[-2000:]))
    context = json.loads(lines[-2].split(" ", 1)[1])
    return context, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--gate", action="store_true")
    args = parser.parse_args()

    seconds = str(SPEC["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        first = None
        for seed in range(1, args.seeds + 1):
            context, result = run(workload, seed,
                                  ["--seconds", seconds, "--trace", "0"])
            if first is None:
                first = context
            if not result["correct"]:
                ok = False
                print("%s seed %d incorrect: %s" % (workload, seed, context["errors"]))
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("%s seed %d wall %.1fs rounds %d steal %d" % (
                workload, seed, context["wall_s"], context["samples"].get("rounds", 0),
                context["steal_ticks"]), flush=True)

        print("\n%-14s %-18s %12s %8s %8s" % ("workload", "metric", "median", "spread", "bound"))
        for name, bound in bounds.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread <= bound else "  OVER BOUND"
            if flag:
                ok = False
            print("%-14s %-18s %12.6g %8.4f %8.3f%s  %s" % (
                workload, name, statistics.median(values[name]), spread, bound, flag,
                " ".join("%.4g" % v for v in values[name])))
        if len(shares) != 1:
            ok = False
            print("%s: failed share differs between runs: %s" % (workload, shares))

        again, _ = run(workload, 1, ["--seconds", seconds, "--trace", "0"])
        for key in EXACT:
            if first["digests"].get(key) != again["digests"].get(key):
                ok = False
                print("%s: %s differs between two runs of seed 1" % (workload, key))
        print("%s: digests repeat for seed 1: %s\n" % (
            workload,
            all(first["digests"].get(k) == again["digests"].get(k) for k in EXACT)))

        if args.gate:
            context, result = run(workload, 1, ["--worker-gate"])
            if not result["correct"]:
                ok = False
            print("%s: worker gate %s %s\n" % (
                workload, "ok" if result["correct"] else "FAILED", context["digests"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
