"""Benchmark of the nested Stokes-Darcy solve through the public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload mini-direct-128 --seed 1 \
        --seconds 30 --trace 0

One process runs one workload.  After a warm-up solve at n = 16 it runs
one timed round: it builds `Problem(pair, n)` REPEATS times (the last
one is kept), calls `solve_coupled` once for each combo and
`compute_errors` REPEATS times for each report; setup and error times
are medians over the repeats.  The round is a fixed amount of work, so
`--seconds` is accepted but does not change it.  Then the run reads the
peak resident memory and checks every report against the factorized
monolithic solve and the closed-form solution.

With `--trace 1` it runs one untraced and one traced round with single
repeats, checks that tracing changed no result, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record,
with the span list of a traced run, is written under perfbench/results/.
"""

import os

# One BLAS thread, fixed before numpy is imported: with the default
# thread count the sparse LU solves spin a second core for no wall-time
# gain.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = {
    "mini-direct-128": ("mini-bdm1", 128, ["direct:pd0"]),
    "mini-hxbpx-64": ("mini-bdm1", 64, ["bpx:hxbpx"]),
    "th-table-64": ("taylorhood-rt1", 64, ["direct:pd0", "bpx:pd0"]),
}
WARMUP_N = 16
REPEATS = 3
FIELDS = ("u_S", "p_S", "u_D", "p_D")
# fields and errors that gate pass/fail; p_S is reported only (its
# distance from the monolithic solve exceeds the inner tolerance)
GATED = ("u_S", "u_D", "p_D")
ERROR_OF = {"u_S": "e_uS", "p_S": "e_pS", "u_D": "e_uD", "p_D": "e_pD"}


def import_library():
    """Import stokesdarcy from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stokesdarcy", "__init__.py")):
        sys.stderr.write("perfbench: no stokesdarcy sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import stokesdarcy
    where = os.path.dirname(os.path.abspath(stokesdarcy.__file__))
    if where != os.path.join(SRC, "stokesdarcy"):
        sys.stderr.write("perfbench: imported stokesdarcy from %s\n" % where)
        sys.exit(2)
    return stokesdarcy


class Ledger:
    """Operations attempted and the outcome of each check.

    An operation that raises ends the run with a traceback and a non-zero
    exit status, so a printed result never holds a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.checks = []

    def check(self, name, ok, detail):
        self.attempted += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks)


def run_round(sd, pair, n, combos, repeats, ledger, tracer=None):
    """One timed round; returns (problem, reports, errors, times).

    `times` holds the wall seconds of each phase (medians over the
    repeats) and, per call, its wall and process CPU seconds.
    """
    calls = []

    def timed(name, fn, *args):
        ledger.attempted += 1
        gc.collect()
        c0, t0 = time.process_time(), time.perf_counter()
        if tracer is None:
            out = fn(*args)
        else:
            out = tracer.call(name, name, fn, args, {})
        wall = time.perf_counter() - t0
        calls.append((name, wall, time.process_time() - c0))
        return out, wall

    setups = []
    for _ in range(repeats):
        problem = None
        problem, wall = timed("bench.Problem", sd.Problem, pair, n)
        setups.append(wall)
    reports, solve_s = [], 0.0
    for combo in combos:
        config = sd.SolveConfig(pair, n, combo=combo)
        report, wall = timed("bench.solve_coupled", sd.solve_coupled,
                             problem, config)
        reports.append(report)
        solve_s += wall
    errors, errors_s = [], 0.0
    for report in reports:
        walls = []
        for _ in range(repeats):
            rec, wall = timed("bench.compute_errors", sd.compute_errors,
                              report)
            walls.append(wall)
        errors.append(rec)
        errors_s += statistics.median(walls)
    setup_s = statistics.median(setups)
    times = {"setup_s": setup_s, "solve_s": solve_s, "errors_s": errors_s,
             "total_s": setup_s + solve_s + errors_s, "calls": calls}
    return problem, reports, errors, times


def rel_distance(a, b):
    import numpy as np
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_against_oracle(sd, problem, reports, errors, ledger):
    """Gate every report on convergence, on its distance from the
    factorized monolithic solve and on its errors against the closed-form
    solution; returns the largest relative field distance seen."""
    from types import SimpleNamespace
    ledger.attempted += 1
    oracle = sd.solve_monolithic_oracle(problem)
    ledger.attempted += 1
    oracle_err = sd.compute_errors(oracle)
    # the oracle's fields measured in the error norms (distance to zero)
    ledger.attempted += 1
    oracle_norm = sd.compute_errors(oracle, sd.ZeroCase())
    worst = 0.0
    details = []
    for report, rec in zip(reports, errors):
        cfg = report.config
        label = "%s:%s" % cfg.combo
        # every coupling apply is an inner solve to relative tolerance
        # inner_rtol, so the converged outer iterate solves a system
        # perturbed by at most inner_rtol + outer_rtol relative
        tol = cfg.inner_rtol + cfg.outer_rtol
        ledger.check("%s converged" % label, report.converged,
                     {"outer_iterations": report.outer_iterations})
        dist = {f: rel_distance(getattr(report, f), getattr(oracle, f))
                for f in FIELDS}
        worst = max(worst, max(dist.values()))
        for f in GATED:
            ledger.check("%s %s vs monolithic" % (label, f), dist[f] <= tol,
                         {"rel_distance": dist[f], "bound": tol})
        # ||x - x*|| in each error norm: the fields x - x* against zero
        ledger.attempted += 1
        gap = sd.compute_errors(
            SimpleNamespace(problem=problem, **{
                f: getattr(report, f) - getattr(oracle, f) for f in FIELDS}),
            sd.ZeroCase())
        for f in GATED:
            # |e - e*| <= ||x - x*|| <= tol ||x*||, each in the error
            # norm; the first is the triangle inequality, up to rounding
            key = ERROR_OF[f]
            e, e_ref = getattr(rec, key), getattr(oracle_err, key)
            d, norm = getattr(gap, key), getattr(oracle_norm, key)
            rounding = 1e-12 * max(e, e_ref)
            ledger.check("%s e(%s) vs monolithic" % (label, f),
                         abs(e - e_ref) <= d + rounding and d <= tol * norm,
                         {"error": e, "oracle_error": e_ref,
                          "rel_gap": abs(e - e_ref) / e_ref,
                          "rel_norm_distance": d / norm, "bound": tol})
        details.append({"combo": label, "rel_distance": dist,
                        "errors": rec.as_tuple(),
                        "oracle_errors": oracle_err.as_tuple(),
                        "oracle_norms": oracle_norm.as_tuple(),
                        "norm_distances": gap.as_tuple()})
    return worst, details


def snapshot(report):
    """Iteration counts and the raw bytes of every field of a report."""
    return (report.outer_iterations, list(report.inner_counts),
            [getattr(report, f).tobytes() for f in FIELDS])


def traced_run(sd, pair, n, combos, ledger, record):
    """Untraced then traced round; per-layer metrics of the traced one."""
    from spans import Tracer, instrument, layer_metrics
    _, plain, _, plain_times = run_round(sd, pair, n, combos, 1, ledger)
    plain = [snapshot(r) for r in plain]
    tracer = instrument(Tracer())
    try:
        problem, reports, errors, times = run_round(sd, pair, n, combos, 1,
                                                    ledger, tracer)
    finally:
        tracer.restore()
    ledger.check("tracing leaves counts and fields bitwise identical",
                 plain == [snapshot(r) for r in reports], {})
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (times["total_s"] - plain_times["total_s"],
                                   "s")
    record["untraced_times"] = plain_times
    record["traced_times"] = times
    record["spans"] = tracer.dump()
    return problem, reports, errors, metrics


def timed_run(sd, pair, n, combos, ledger, record):
    """One round with REPEATS builds and error evaluations; end-to-end
    metrics from it."""
    problem, reports, errors, times = run_round(sd, pair, n, combos,
                                                REPEATS, ledger)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {k: (times[k], "s")
               for k in ("total_s", "setup_s", "solve_s", "errors_s")}
    metrics.update({
        "peak_rss_mb": (peak_mb, "MB"),
        "outer_iterations": (sum(r.outer_iterations for r in reports),
                             "count"),
        "inner_iterations": (sum(sum(r.inner_counts) for r in reports),
                             "count"),
    })
    record["times"] = times
    return problem, reports, errors, metrics


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "blas_env": BLAS_ENV}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded only: every input is deterministic")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="accepted; a run is one round of fixed work")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="override the mesh size (harness self-test)")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    sd = import_library()
    pair, n, combos = WORKLOADS[args.workload]
    n = args.n or n
    ledger = Ledger()

    # imports, first calls and quadrature caches are paid here
    run_round(sd, pair, WARMUP_N, combos, 1, Ledger())

    record = {"workload": args.workload, "seed": args.seed, "n": n,
              "pair": pair, "combos": combos, "trace": args.trace,
              "environment": environment()}
    if args.trace:
        problem, reports, errors, metrics = traced_run(
            sd, pair, n, combos, ledger, record)
    else:
        problem, reports, errors, metrics = timed_run(
            sd, pair, n, combos, ledger, record)
    record["dof"] = problem.dof_total
    worst, details = check_against_oracle(sd, problem, reports, errors,
                                          ledger)
    if not args.trace:
        metrics["oracle_relerr"] = (worst, "ratio")
    record["oracle"] = details
    record["checks"] = ledger.checks
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": 0,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    record["result"] = result

    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(record, f)

    for c in ledger.checks:
        print("%-4s %s" % ("ok" if c["ok"] else "FAIL", c["check"]))
    for k, (v, u) in metrics.items():
        print("%-30s %14.6g %s" % (k, v, u))
    print("attempted %d failed 0" % ledger.attempted)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
