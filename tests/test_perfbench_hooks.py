"""The benchmark's tracing hooks against the library they wrap.

`perfbench/spans.py` replaces named functions, methods and bindings of
the library modules; a rename in the library breaks it.  This runs the
instrumentation and its undo in the test suite.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(ROOT, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_hook():
    spans = _load_spans()
    tracer = spans.Tracer()
    originals = {}
    try:
        spans.instrument(tracer)
        # the first replacement of an attribute saw the library's own
        # object; some attributes are wrapped twice
        for owner, attr, original in tracer._undo:
            originals.setdefault((owner, attr), original)
        assert originals
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.restore()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)


# the build spans, as (name, group), that each kind's builder leaves: the
# outer block inside solver.outer_preconditioner, the inner one at the top
# level of solve_coupled, outside every ftp span
OUTER_BUILDS = {
    "direct": {("precond.direct_inverse", "precond.lu_setup")},
    "bpx": {("solver.stokes_velocity_bpx", "precond.bpx_setup")},
}
_HX_BUILDS = {("precond.build_hx_transfers", "precond.hx_setup"),
              ("precond.build_hx_precond", "precond.hx_setup")}
INNER_BUILDS = {
    "pd0": {("precond.direct_inverse", "precond.lu_setup")},
    "hx": _HX_BUILDS | {("precond.direct_inverse", "precond.lu_setup")},
    "hxbpx": _HX_BUILDS | {("precond.hx_nodal_hierarchy",
                            "precond.bpx_setup")},
}
_SETUP_GROUPS = ("precond.lu_setup", "precond.hx_setup", "precond.bpx_setup")


def _subtrees(spans, roots):
    """(name, group) of the spans in roots and below them."""
    inside = set(roots)
    for i, s in enumerate(spans):
        if s.parent in inside:
            inside.add(i)
    return {(spans[i].name, spans[i].group) for i in inside}


def test_tracer_sees_every_kind_build(mini8):
    """One solve per outer and per inner kind of the table; a builder that
    captured a wrapped routine at import time leaves no span."""
    from stokesdarcy import SolveConfig, solve_coupled
    from stokesdarcy.solver import INNER_KINDS, OUTER_KINDS

    assert set(OUTER_BUILDS) == set(OUTER_KINDS)
    assert set(INNER_BUILDS) == set(INNER_KINDS)
    spans = _load_spans()
    for k, inner in enumerate(INNER_KINDS):
        outer = OUTER_KINDS[k % len(OUTER_KINDS)]
        tracer = spans.Tracer()
        try:
            spans.instrument(tracer)
            report = solve_coupled(mini8, SolveConfig("mini", 8,
                                                      combo=(outer, inner)))
        finally:
            tracer.restore()
        assert report.converged
        recorded = tracer.spans
        outer_roots = [i for i, s in enumerate(recorded)
                       if s.name == "solver.outer_preconditioner"]
        inner_roots = [i for i, s in enumerate(recorded)
                       if s.parent < 0 and s.group in _SETUP_GROUPS]
        assert OUTER_BUILDS[outer] <= _subtrees(recorded, outer_roots), outer
        assert INNER_BUILDS[inner] <= _subtrees(recorded, inner_roots), inner
