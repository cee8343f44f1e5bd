"""Run the benchmark repeatedly and report the spread of every metric.

Usage (from the repository root):

    python3 perfbench/spread.py --runs 10 [--first-seed 1]

It runs every workload of BENCHMARK.json in turn.  Each run is a fresh
process of perfbench/run.py with its own --seed (first-seed,
first-seed + 1, ...).  For every workload and metric it prints the
median, the first and third quartiles as `statistics.quantiles(values,
n=4)` gives them, and the spread (Q3 - Q1) / median next to the metric's
bound from BENCHMARK.json, plus the share of failed operations per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    """(median, Q1, Q3) as `statistics.quantiles(values, n=4)` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for w in (x["name"] for x in spec["workloads"]):
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            results.append(run_once(spec, w, seed))
            walls.append(time.perf_counter() - t0)
            sys.stderr.write("%s seed %d done\n" % (w, seed))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("%s: %d runs of %.0f-%.0f s, all correct: %s, failed shares: %s"
              % (w, len(results), min(walls), max(walls),
                 all(r["correct"] for r in results), shares))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3 = summarize(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print("  %-30s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %7.4f  bound %s"
                  % (name, med, q1, q3, spread,
                     "-" if bound is None else bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
