#!/usr/bin/env python3
"""Runs workloads with several seeds and reports, per end-to-end metric, the
median, the quartiles and the spread (interquartile distance / median) next
to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py                      # every workload, 10 seeds
    python3 perfbench/steadiness.py --workload serve-mix --runs 5 --first-seed 100

A spread below a third of the bound leaves room for run-to-run noise; the
bounds in BENCHMARK.json were set from these figures (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not last["correct"]:
                print("%s seed %d: incorrect run" % (workload, seed))
                return 1
            for name in values:
                values[name].append(last["metrics"][name]["value"])
        print("%s (%d runs, seeds %d..%d)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread "
                  "%6.2f%%  bound %4.0f%% %s" % (
                      name, q2, q1, q3, 100 * spread, 100 * bounds[name],
                      "" if ok else "<- over a third of the bound"))
            print("  %12s runs: %s" % ("", " ".join("%.4g" % v
                                                    for v in series)))
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
