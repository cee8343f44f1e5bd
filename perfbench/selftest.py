"""Fast self-test of the benchmark harness at n = 8.

Usage (from the repository root):

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with `--n 8`, untraced and
traced, and checks the printed result against BENCHMARK.json: the exact
keys, every end-to-end (or per-layer) metric with its unit, all checks
passed (the traced run includes the bitwise comparison with an untraced
round), and the counting identities that tie the traced inner layers
together.  Finally it runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must exit non-zero without a
result.  Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "selftest")


def run(spec, cwd, workload, trace, extra=()):
    cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                             "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def check_result(spec, workload, trace, proc, problems):
    where = "%s trace=%d" % (workload, trace)
    if proc.returncode != 0:
        problems.append("%s: exit %d\n%s" % (where, proc.returncode,
                                              proc.stderr[-2000:]))
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append("%s: correct=%s attempted=%s failed=%s"
                        % (where, result["correct"], result["attempted"],
                           result["failed"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append("%s: metrics %s" % (where, sorted(got)))
    for m in wanted:
        if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s: unit of %s" % (where, m["name"]))
    return {k: v["value"] for k, v in got.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        ncombos = len(WORKLOADS[w][2])
        for trace in (0, 1):
            layers = check_result(spec, w, trace,
                                  run(spec, ROOT, w, trace, ("--n", "8")),
                                  problems)
        if layers:
            # traced layers: one inner MINRES per coupling apply, plus
            # the source and the recovery solve of each combo; every inner
            # MINRES applies its preconditioner once more than its operator
            if layers["ftp.inner_solves"] != \
                    layers["ftp.coupling_applies"] + 2 * ncombos:
                problems.append("%s: inner solves do not add up" % w)
            applies = layers["ftp.operator_applies"] \
                + layers["ftp.inner_solves"]
            if layers["precond.inner_applies"] != applies:
                problems.append("%s: inner applies do not add up" % w)
        sys.stderr.write("selftest: %s done\n" % w)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    first = spec["workloads"][0]["name"]
    proc = run(spec, SCRATCH, first, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without src/ the benchmark exited %d with output %r"
                        % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(SCRATCH)

    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
