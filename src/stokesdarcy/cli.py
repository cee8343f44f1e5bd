"""Batch driver: convergence and iteration-count tables, invariant checks,
and the nested-versus-monolithic comparison."""

import argparse
import os
import sys

import numpy as np

from . import verify
from .ftp import SolverFailure
from .krylov import IndefinitePreconditioner
from .solver import (DEFAULT_COMBO, INNER_KINDS, INNER_RTOL, KINDS,
                     OUTER_KINDS, OUTER_RTOL, Problem, SolveConfig,
                     canonical_pair, check_mesh_size, check_tolerances,
                     combo_label, parse_combo, solve_coupled,
                     solve_monolithic_oracle)

ENV_OUTDIR = "STOKESDARCY_OUTDIR"
DEFAULT_NMIN, DEFAULT_NMAX = 8, 128  # default table: n = 8, 16, ..., 128
DIRECT_CAP = 64  # memory guard for combos with direct factorizations


def read_config(path):
    """Plain-text 'key = value' configuration; 'combo' lines accumulate."""
    values = {}
    combos = []
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("bad config line %r" % raw.strip())
            key, val = (part.strip() for part in line.split("=", 1))
            if key == "combo":
                combos.append(val)
            else:
                values[key] = val
    if combos:
        values["combo"] = combos
    return values


# what each verb reads: its flags, and the config-file keys of the same
# names (with underscores)
_TABLE_KEYS = ("pair", "nmin", "nmax", "combo", "outer_rtol", "inner_rtol",
               "format", "out")
VERB_KEYS = {
    "converge": _TABLE_KEYS,
    "iterations": _TABLE_KEYS,
    "check": ("seed",),
    "oracle": ("pair", "nmin", "combo"),
}
_FLAGS = {
    "pair": dict(help="element pair (mini-bdm1, p2isop1-bdm1, "
                      "taylorhood-rt1); default mini-bdm1"),
    "nmin": dict(type=int),
    "nmax": dict(type=int),
    "combo": dict(action="append", metavar="OUTER:INNER",
                  help="outer in %s, inner in %s; repeatable for "
                       "iterations" % (OUTER_KINDS, INNER_KINDS)),
    "outer_rtol": dict(type=float),
    "inner_rtol": dict(type=float),
    "format": dict(choices=("csv", "markdown")),
    "out": dict(),
    "seed": dict(type=int),
}


class UsageError(ValueError):
    """A flag, config key or value the verb does not accept."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_args(argv):
    ap = _Parser(
        prog="stokesdarcy",
        description="Coupled free-flow/porous solver experiment driver")
    sub = ap.add_subparsers(dest="command", required=True)
    for verb, keys in VERB_KEYS.items():
        p = sub.add_parser(verb)
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        p.add_argument("--config", default=None)
    return ap.parse_args(argv)


class ExperimentSpec:
    """Resolved experiment parameters (defaults, config file, flags).

    Raises UsageError for a config key the verb does not read and for
    more than one combo where the verb solves one."""

    def __init__(self, args):
        cfg = read_config(args.config) if args.config else {}
        keys = VERB_KEYS[args.command]
        unread = sorted(set(cfg) - set(keys))
        if unread:
            raise UsageError("%s does not read config key%s %s"
                             % (args.command, "s" * (len(unread) > 1),
                                ", ".join(map(repr, unread))))

        def pick(key, cast, default):
            flag = getattr(args, key, None)
            if flag is not None:
                return flag
            if key in cfg:
                return cast(cfg[key])
            return default

        self.pair = canonical_pair(pick("pair", str, "mini-bdm1"))
        self.nmin = pick("nmin", int, DEFAULT_NMIN)
        self.nmax_explicit = getattr(args, "nmax", None) is not None \
            or "nmax" in cfg
        self.nmax = pick("nmax", int, DEFAULT_NMAX)
        self.outer_rtol = pick("outer_rtol", float, OUTER_RTOL)
        self.inner_rtol = pick("inner_rtol", float, INNER_RTOL)
        self.format = pick("format", str, "csv")
        if self.format not in _FLAGS["format"]["choices"]:
            raise UsageError("unknown format %r" % (self.format,))
        self.out = pick("out", str, None)
        self.seed = pick("seed", int, 0)
        combos = getattr(args, "combo", None) or cfg.get("combo") \
            or [DEFAULT_COMBO]
        self.combos = [parse_combo(c) for c in combos]
        if len(self.combos) > 1 and args.command != "iterations":
            raise UsageError("%s solves one combo, got %d"
                             % (args.command, len(self.combos)))

    def mesh_sizes(self):
        """The doublings nmin * 2^k <= nmax; raises on an empty range or
        on a size the pair cannot be built at."""
        if self.nmin < 1:
            raise ValueError("--nmin must be positive, got %d" % self.nmin)
        ns = []
        n = self.nmin
        while n <= self.nmax:
            check_mesh_size(self.pair, n)
            ns.append(n)
            n *= 2
        if not ns:
            raise ValueError("empty mesh-size range [%d, %d]"
                             % (self.nmin, self.nmax))
        return ns

    def oracle_size(self):
        """Mesh size of the oracle comparison: nmin, at least 8."""
        n = max(self.nmin, 8)
        check_mesh_size(self.pair, n)
        return n

    def n_values(self):
        """Mesh sizes of a table, capped for direct factorizations unless
        --nmax was given."""
        ns = self.mesh_sizes()
        has_direct = any(KINDS[k].direct for c in self.combos for k in c)
        if has_direct and not self.nmax_explicit:
            capped = [n for n in ns if n <= DIRECT_CAP]
            if capped != ns:
                sys.stderr.write(
                    "warning: capping the mesh range at n=%d for combos "
                    "with direct factorizations (pass --nmax to "
                    "override)\n" % DIRECT_CAP)
                ns = capped
        return ns

    def out_path(self, default_name):
        outdir = os.environ.get(ENV_OUTDIR, ".")
        if self.out:
            return self.out if os.path.isabs(self.out) \
                else os.path.join(outdir, self.out)
        return os.path.join(outdir, default_name)


def _fmt(x):
    return "%.3e" % x


def _fmt_rate(r):
    return "-" if r is None or np.isnan(r) else "%.2f" % r


def write_table(path, header, rows, fmt):
    """CSV (comma, LF, header) or markdown table."""
    with open(path, "w", newline="") as f:
        if fmt == "csv":
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(row) + "\n")
        else:
            f.write("| " + " | ".join(header) + " |\n")
            f.write("|" + "|".join("---" for _ in header) + "|\n")
            for row in rows:
                f.write("| " + " | ".join(row) + " |\n")


def _solve_cell(problem, config):
    """The report of one table cell, or None when an inner solve failed
    (the reason goes to stderr)."""
    try:
        return solve_coupled(problem, config)
    except (SolverFailure, IndefinitePreconditioner) as exc:
        sys.stderr.write("stokesdarcy: n=%d %s failed: %s\n"
                         % (config.n, combo_label(config.combo), exc))
        return None


def run_convergence(spec):
    """Error/rate table over the mesh family; returns (path, all_converged)."""
    header = ["DOF", "h", "e(u_S)", "r(u_S)", "e(p_S)", "r(p_S)",
              "e(u_D)", "r(u_D)", "e(p_D)", "r(p_D)"]
    rows = []
    ok = True
    prev = None
    for n in spec.n_values():
        problem = Problem(spec.pair, n)
        config = SolveConfig(spec.pair, n, outer_rtol=spec.outer_rtol,
                             inner_rtol=spec.inner_rtol,
                             combo=spec.combos[0])
        report = _solve_cell(problem, config)
        if report is None or not report.converged:
            ok = False
            rows.append([str(problem.dof_total), "1/%d" % n, "FAILED"]
                        + [""] * 7)
            prev = None
            continue
        rec = verify.compute_errors(report)
        rates = verify.compute_rates(prev, rec) if prev is not None else None
        rr = rates.as_tuple() if rates else (None,) * 4
        rows.append([str(rec.dof), "1/%d" % n,
                     _fmt(rec.e_uS), _fmt_rate(rr[0]),
                     _fmt(rec.e_pS), _fmt_rate(rr[1]),
                     _fmt(rec.e_uD), _fmt_rate(rr[2]),
                     _fmt(rec.e_pD), _fmt_rate(rr[3])])
        prev = rec
    path = spec.out_path("convergence_%s.%s"
                         % (spec.pair, "csv" if spec.format == "csv" else "md"))
    write_table(path, header, rows, spec.format)
    return path, ok


def run_iterations(spec):
    """Iteration-count table: one column per preconditioner combo."""
    header = ["DOF", "h"] + [combo_label(c) for c in spec.combos]
    rows = []
    ok = True
    for n in spec.n_values():
        problem = Problem(spec.pair, n)
        cells = []
        for combo in spec.combos:
            config = SolveConfig(spec.pair, n, outer_rtol=spec.outer_rtol,
                                 inner_rtol=spec.inner_rtol, combo=combo)
            report = _solve_cell(problem, config)
            if report is None or not report.converged:
                ok = False
                cells.append('"FAILED"')
            else:
                cells.append('"%d(%d)"' % (report.outer_iterations,
                                           int(round(report.mean_inner))))
        rows.append([str(problem.dof_total), "1/%d" % n] + cells)
    path = spec.out_path("iterations_%s.%s"
                         % (spec.pair, "csv" if spec.format == "csv" else "md"))
    write_table(path, header, rows, spec.format)
    return path, ok


def run_check(spec):
    """Quick invariant battery; prints one line per check."""
    from . import checks
    results = checks.run_all(seed=spec.seed)
    ok = True
    for name, passed, detail in results:
        print("%-52s %s  %s" % (name, "PASS" if passed else "FAIL", detail))
        ok = ok and passed
    return ok


def run_oracle(spec):
    """Nested solve with tightened tolerances against the factorized
    monolithic solve, per element pair."""
    n = spec.oracle_size()
    problem = Problem(spec.pair, n)
    config = SolveConfig(spec.pair, n, outer_rtol=1e-10, inner_rtol=1e-12,
                         combo=spec.combos[0], maxit_inner=5000)
    nested = _solve_cell(problem, config)
    if nested is None:
        return False
    mono = solve_monolithic_oracle(problem)

    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    diffs = {"u_S": rel(nested.u_S, mono.u_S),
             "p_S": rel(nested.p_S, mono.p_S),
             "u_D": rel(nested.u_D, mono.u_D),
             "p_D": rel(nested.p_D, mono.p_D)}
    worst = max(diffs.values())
    for k, v in diffs.items():
        print("%s: relative difference %.3e" % (k, v))
    print("oracle comparison %s (worst %.3e, tolerance 1e-6)"
          % ("PASS" if worst <= 1e-6 else "FAIL", worst))
    return worst <= 1e-6


def main(argv=None):
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
        spec = ExperimentSpec(args)
        if args.command in ("converge", "iterations"):
            spec.mesh_sizes()
            check_tolerances(spec.outer_rtol, spec.inner_rtol)
        elif args.command == "oracle":
            spec.oracle_size()
    except ValueError as exc:
        sys.stderr.write("stokesdarcy: error: %s\n" % exc)
        return 2
    if args.command == "converge":
        path, ok = run_convergence(spec)
        print("wrote", path)
    elif args.command == "iterations":
        path, ok = run_iterations(spec)
        print("wrote", path)
    elif args.command == "check":
        ok = run_check(spec)
    else:
        ok = run_oracle(spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
