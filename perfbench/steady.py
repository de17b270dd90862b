#!/usr/bin/env python3
"""Steadiness check for the mlec++ benchmark.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--seconds S] [--first-seed 1]

Runs each workload `runs` times per set, each run with its own seed, through
perfbench/run.py, and prints for every end-to-end metric of BENCHMARK.json:
the median, the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them), and the share of operations
that failed. With two sets it also says whether they agree: each spread
(setup_s excepted) within the metric's bound, the second set's median no
worse than the first's by more than the bound, and the same failed share.
Exits 1 when any workload is unsteady or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d): %s" % (workload, seed, out.returncode,
                                                             out.stderr[-2000:]))
    return json.loads(lines[-1])


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf"), values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    steady = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            sets.append([run_once(workload, seed, seconds) for seed in range(first, first + args.runs)])
        print("== %s (%d runs x %d sets, %d s each)" % (workload, args.runs, args.sets, seconds))
        shares = []
        for results in sets:
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            shares.append({r["failed"] * 1.0 / r["attempted"] for r in results})
            if not all(r["correct"] for r in results):
                print("   a run reported correct=false")
                steady = False
            print("   failed %d of %d operations" % (failed, attempted))
        if args.sets == 2 and shares[0] != shares[1]:
            print("   failed share differs between the sets")
            steady = False
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            row = "   %-16s" % name
            meds, runs = [], []
            for results in sets:
                med, spread, values = summarize(results, name)
                runs.append(" ".join("%.4g" % v for v in values))
                meds.append(med)
                ok = name == "setup_s" or spread <= bound
                steady &= ok
                row += "  median %12.4f %-5s iqr %6.1f%% %s" % (med, m["unit"], spread * 100,
                                                               "ok" if ok else "WIDE")
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0] if better == "lower" else \
                        (meds[0] - meds[1]) / meds[0]
                ok = worse <= bound
                steady &= ok
                row += "  drift %+6.1f%% (bound %.0f%%) %s" % (worse * 100, bound * 100,
                                                              "ok" if ok else "DRIFT")
            print(row)
            for i, values in enumerate(runs):
                print("      set %d runs: %s" % (i + 1, values))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
