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
    """Resolved and checked experiment parameters (defaults, config file,
    flags).

    Raises UsageError for a config file it cannot read, a config key the
    verb does not read, a negative seed, more than one combo where the
    verb solves one, a table's missing output directory and an --out
    that names a directory, and ValueError for a tolerance outside
    (0, 1), an empty mesh-size range or a size the pair cannot be built
    at; so a bad run stops before any solve."""

    def __init__(self, args):
        try:
            cfg = read_config(args.config) if args.config else {}
        except OSError as exc:
            raise UsageError("cannot read config file: %s" % exc) from exc
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
        if self.seed < 0:
            raise UsageError("seed must be non-negative, got %d" % self.seed)
        combos = getattr(args, "combo", None) or cfg.get("combo") \
            or [DEFAULT_COMBO]
        self.combos = [parse_combo(c) for c in combos]
        if len(self.combos) > 1 and args.command != "iterations":
            raise UsageError("%s solves one combo, got %d"
                             % (args.command, len(self.combos)))
        check_tolerances(self.outer_rtol, self.inner_rtol)
        if args.command in ("converge", "iterations"):
            # the doublings nmin * 2^k <= nmax
            self.sizes, n = [], self.nmin
            while n <= self.nmax:
                check_mesh_size(self.pair, n)
                self.sizes.append(n)
                n *= 2
            if not self.sizes:
                raise ValueError("empty mesh-size range [%d, %d]"
                                 % (self.nmin, self.nmax))
            path = self.out_path("table")
            if self.out and os.path.isdir(path):
                raise UsageError("output path %r is a directory" % path)
            outdir = os.path.dirname(path) or "."
            if not os.path.isdir(outdir):
                raise UsageError("output directory %r does not exist"
                                 % outdir)
        else:  # the oracle compares at nmin, at least 8
            self.sizes = [max(self.nmin, 8)]
            check_mesh_size(self.pair, self.sizes[0])

    def n_values(self):
        """Mesh sizes of a table, capped for direct factorizations unless
        --nmax was given."""
        has_direct = any(KINDS[k].direct for c in self.combos for k in c)
        if has_direct and not self.nmax_explicit \
                and self.sizes[-1] > DIRECT_CAP:
            sys.stderr.write("warning: capping the mesh range at n=%d for "
                             "combos with direct factorizations (pass --nmax "
                             "to override)\n" % DIRECT_CAP)
            return [n for n in self.sizes if n <= DIRECT_CAP]
        return self.sizes

    def out_path(self, default_name):
        outdir = os.environ.get(ENV_OUTDIR, ".")
        if self.out:
            return self.out if os.path.isabs(self.out) \
                else os.path.join(outdir, self.out)
        return os.path.join(outdir, default_name)


def _fmt_rate(r):
    return "-" if r is None or np.isnan(r) else "%.2f" % r


def write_table(path, header, rows, fmt):
    """CSV (comma, LF, header) or markdown table of cells given as CSV
    fields: markdown shows each field's value, without CSV quotes."""
    with open(path, "w", newline="") as f:
        if fmt == "csv":
            f.write(",".join(header) + "\n")
            for row in rows:
                f.write(",".join(row) + "\n")
        else:
            f.write("| " + " | ".join(header) + " |\n")
            f.write("|" + "|".join("---" for _ in header) + "|\n")
            for row in rows:
                f.write("| " + " | ".join(c.strip('"') for c in row)
                        + " |\n")


def _solve_cell(problem, config):
    """The report of one cell, or None when the cell failed: its inner
    solve raised, or its outer solve did not converge.  A failed cell
    writes one reason line to stderr."""
    try:
        report = solve_coupled(problem, config)
    except (SolverFailure, IndefinitePreconditioner) as exc:
        reason = exc
    else:
        if report.converged:
            return report
        reason = "outer MINRES did not converge in %d iterations" \
            % report.outer_iterations
    sys.stderr.write("stokesdarcy: n=%d %s failed: %s\n"
                     % (config.n, combo_label(config.combo), reason))
    return None


def _run_table(spec, name, header, row):
    """One table over the mesh sizes: one Problem per size, one cell per
    combo and one row per size, whose cells after DOF and h are
    row(reports) (None for a failed cell).  Writes the table to the
    verb's output name and returns whether every cell converged."""
    rows = []
    ok = True
    for n in spec.n_values():
        problem = Problem(spec.pair, n)
        reports = [_solve_cell(problem, SolveConfig(
            spec.pair, n, outer_rtol=spec.outer_rtol,
            inner_rtol=spec.inner_rtol, combo=combo))
            for combo in spec.combos]
        ok = ok and None not in reports
        rows.append([str(problem.dof_total), "1/%d" % n] + row(reports))
    ext = "csv" if spec.format == "csv" else "md"
    path = spec.out_path("%s_%s.%s" % (name, spec.pair, ext))
    write_table(path, ["DOF", "h"] + header, rows, spec.format)
    print("wrote", path)
    return ok


_FIELDS = ("u_S", "p_S", "u_D", "p_D")


def _error_row():
    """The row format of converge: the errors of its one cell, each with
    its rate against the previous row, if that one converged."""
    prev = None

    def row(reports):
        nonlocal prev
        if reports[0] is None:
            prev = None
            return ["FAILED"] + [""] * 7
        rec = verify.compute_errors(reports[0])
        rates = (None,) * 4 if prev is None \
            else verify.compute_rates(prev, rec).as_tuple()
        prev = rec
        return [cell for e, r in zip(rec.as_tuple(), rates)
                for cell in ("%.3e" % e, _fmt_rate(r))]

    return row


def _iteration_row(reports):
    """The row format of iterations: "outer(mean inner)" per combo."""
    return ['"FAILED"' if r is None else '"%d(%d)"' % (
        r.outer_iterations, int(round(r.mean_inner))) for r in reports]


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
    n = spec.sizes[0]
    problem = Problem(spec.pair, n)
    config = SolveConfig(spec.pair, n, outer_rtol=1e-10, inner_rtol=1e-12,
                         combo=spec.combos[0], maxit_inner=5000)
    nested = _solve_cell(problem, config)
    if nested is None:
        return False
    mono = solve_monolithic_oracle(problem)
    diffs = {}
    for f in _FIELDS:
        a, b = getattr(nested, f), getattr(mono, f)
        diffs[f] = np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)
        print("%s: relative difference %.3e" % (f, diffs[f]))
    worst = max(diffs.values())
    print("oracle comparison %s (worst %.3e, tolerance 1e-6)"
          % ("PASS" if worst <= 1e-6 else "FAIL", worst))
    return worst <= 1e-6


_VERBS = {
    "converge": lambda spec: _run_table(
        spec, "convergence",
        ["%s(%s)" % (m, f) for f in _FIELDS for m in "er"], _error_row()),
    "iterations": lambda spec: _run_table(
        spec, "iterations", [combo_label(c) for c in spec.combos],
        _iteration_row),
    "check": run_check,
    "oracle": run_oracle,
}


def main(argv=None):
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
        spec = ExperimentSpec(args)
    except ValueError as exc:
        sys.stderr.write("stokesdarcy: error: %s\n" % exc)
        return 2
    return 0 if _VERBS[args.command](spec) else 1


if __name__ == "__main__":
    sys.exit(main())
