"""In-memory span tracer and the per-layer instrumentation of stokesdarcy.

Spans are recorded from the benchmark side only: `instrument` replaces
public functions, methods and returned operators of the library modules
with timing wrappers, and `Tracer.restore` puts the originals back.
Names bound with ``from ... import`` are wrapped where they are looked
up (for example ``solver.minres`` and ``ftp.minres`` are separate
bindings of ``krylov.minres``).
"""

import functools
import time


class Span:
    __slots__ = ("name", "group", "start", "end", "parent", "info")

    def __init__(self, name, group, start, parent):
        self.name = name
        self.group = group
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Nested spans (name, group, start, end, parent index) kept in memory.

    `group` is the per-layer bucket a span is charged to; spans of one
    group nested inside another span of the same group are not counted
    twice in that group's time.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def call(self, name, group, fn, args, kwargs, after=None):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, group, time.perf_counter(), parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if after is not None:
            after(span, args, result)
        return result

    def replace(self, owner, attr, value):
        """Set owner.attr until `restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, group, after=None):
        """Replace owner.attr (module function, class method or class
        special method) by a span-recording wrapper."""
        original = getattr(owner, attr)
        name = "%s.%s" % (owner.__name__.split(".")[-1], attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, group, original, args, kwargs, after)

        self.replace(owner, attr, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self):
        """Spans as plain lists: [name, group, start, end, parent, info]."""
        return [[s.name, s.group, s.start, s.end, s.parent, s.info]
                for s in self.spans]


class _ModuleProxy:
    """Stand-in for a module object with some attributes overridden."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def instrument(tracer):
    """Wrap the layer boundaries of every library module; returns the
    tracer (call `tracer.restore()` to undo)."""
    from stokesdarcy import assembly, fespace, ftp, krylov, mesh, precond
    from stokesdarcy import solver

    w = tracer.wrap

    def wrap_op(op, group):
        """Operator handle whose every apply is a span."""
        def apply(x):
            return tracer.call(group, group, op, (x,), {})
        return krylov.LinOp(op.n, apply, symmetric=op.symmetric)

    for owner in (mesh, solver):
        w(owner, "build_unit_square", "mesh.build")
    for owner in (solver, precond):
        w(owner, "mesh_hierarchy", "mesh.hierarchy")

    for cls in (fespace.Space, fespace.VectorSpace, fespace.FluxSpace,
                fespace.TraceSpace):
        w(cls, "__init__", "fespace.spaces")
    w(solver, "sigma_flux_maps", "fespace.spaces")
    for owner in (solver, precond):
        w(owner, "nodal_prolongation", "fespace.prolongation")

    for fn in ("scalar_mass", "scalar_stiffness", "pressure_integral",
               "stokes_velocity_matrix", "divergence_matrix",
               "flux_operator_matrices", "assemble_darcy",
               "assemble_interface"):
        w(assembly, fn, "assembly.forms")
    w(ftp, "pressure_integral", "assembly.forms")
    for fn in ("stokes_load", "darcy_load"):
        w(assembly, fn, "assembly.loads")

    def wrap_inner_precond(span, args, result):
        sub = args[0]
        sub.precond_op = wrap_op(sub.precond_op, "precond.inner_apply")

    w(ftp.DarcySubsolver, "__init__", "ftp.subsolver_setup",
      wrap_inner_precond)

    # operator factories: every apply of the returned handle is a span
    def op_factory(owner, attr, apply_group):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def factory(*args, **kwargs):
            return wrap_op(original(*args, **kwargs), apply_group)

        tracer.replace(owner, attr, factory)

    op_factory(ftp.DarcySubsolver, "operator", "ftp.operator_apply")
    op_factory(solver, "_outer_operator", "solver.outer_operator")
    op_factory(solver, "outer_preconditioner", "precond.outer_apply")
    w(solver, "outer_preconditioner", "solver.outer_precond_setup")

    w(ftp, "source_residual", "ftp.source_solve")

    def record_iterations(span, args, result):
        span.info = result[2].iterations

    w(ftp.DarcySubsolver, "solve_lifted", "ftp.solve_lifted",
      record_iterations)
    w(ftp.CouplingOperator, "__call__", "ftp.coupling")

    def record_stats(span, args, result):
        span.info = result[1].iterations

    w(solver, "minres", "krylov.outer_minres", record_stats)
    w(ftp, "minres", "krylov.inner_minres", record_stats)

    for fn in ("direct_inverse", "gs_sweep"):
        w(precond, fn, "precond.lu_setup")

    def record_nnz(span, args, result):
        span.info = int(result.nnz)

    splu = precond.spla.splu

    @functools.wraps(splu)
    def traced_splu(*args, **kwargs):
        return tracer.call("spla.splu", "precond.lu_setup", splu, args,
                           kwargs, record_nnz)

    tracer.replace(precond, "spla",
                   _ModuleProxy(precond.spla, splu=traced_splu))

    for fn in ("build_bpx", "hx_nodal_hierarchy"):
        w(precond, fn, "precond.bpx_setup")
    w(solver, "stokes_velocity_bpx", "precond.bpx_setup")
    for fn in ("build_hx_transfers", "build_hx_precond"):
        w(precond, fn, "precond.hx_setup")
    return tracer


def _ancestor_groups(spans, i):
    groups = set()
    p = spans[i].parent
    while p >= 0:
        groups.add(spans[p].group)
        p = spans[p].parent
    return groups


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one traced round.

    A group's time sums the spans of that group not nested in another
    span of the same group.  Self time is a span's duration minus the
    time its direct child spans cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    time_in = {}
    count_in = {}
    for i, s in enumerate(spans):
        count_in[s.group] = count_in.get(s.group, 0) + 1
        if s.group not in _ancestor_groups(spans, i):
            time_in[s.group] = time_in.get(s.group, 0.0) + s.duration

    def t(group):
        return time_in.get(group, 0.0)

    def c(group):
        return count_in.get(group, 0)

    recovery = [s for s in spans if s.group == "ftp.solve_lifted"
                and (s.parent < 0 or spans[s.parent].group != "ftp.coupling")]
    # outer MINRES calls per solve: the first is the uncoupled warm start,
    # the second the coupled outer iteration
    by_parent = {}
    for i, s in enumerate(spans):
        if s.group == "krylov.outer_minres":
            by_parent.setdefault(s.parent, []).append(i)
    warm = [spans[v[0]] for v in by_parent.values()]
    outer = [i for v in by_parent.values() for i in v[1:]]
    inner = [i for i, s in enumerate(spans)
             if s.group == "krylov.inner_minres"]
    outer_op = [i for i, s in enumerate(spans)
                if s.group == "solver.outer_operator"]
    lu_spans = [s for s in spans if s.name == "spla.splu"]

    def self_time(idx):
        return sum(spans[i].duration - child_time[i] for i in idx)

    s_, n_ = "s", "count"
    return {
        "mesh.build_s": (t("mesh.build"), s_),
        "mesh.hierarchy_builds": (c("mesh.hierarchy"), n_),
        "fespace.spaces_s": (t("fespace.spaces"), s_),
        "fespace.prolongation_s": (t("fespace.prolongation"), s_),
        "fespace.prolongation_calls": (c("fespace.prolongation"), n_),
        "assembly.forms_s": (t("assembly.forms"), s_),
        "assembly.loads_s": (t("assembly.loads"), s_),
        "ftp.subsolver_setup_s": (t("ftp.subsolver_setup"), s_),
        "precond.lu_setup_s": (t("precond.lu_setup"), s_),
        "precond.lu_factorizations": (len(lu_spans), n_),
        "precond.lu_factor_nnz": (sum(s.info for s in lu_spans), n_),
        "precond.bpx_setup_s": (t("precond.bpx_setup"), s_),
        "precond.hx_setup_s": (t("precond.hx_setup"), s_),
        "solver.outer_precond_setup_s": (t("solver.outer_precond_setup"), s_),
        "ftp.source_solve_s": (t("ftp.source_solve"), s_),
        "ftp.recovery_s": (sum(s.duration for s in recovery), s_),
        "ftp.recovery_iterations": (sum(s.info for s in recovery), n_),
        "krylov.warmstart_s": (sum(s.duration for s in warm), s_),
        "krylov.warmstart_iterations": (sum(s.info for s in warm), n_),
        "ftp.coupling_applies": (c("ftp.coupling"), n_),
        "ftp.coupling_s": (t("ftp.coupling"), s_),
        "ftp.inner_solves": (len(inner), n_),
        "ftp.operator_applies": (c("ftp.operator_apply"), n_),
        "ftp.operator_apply_s": (t("ftp.operator_apply"), s_),
        "precond.inner_applies": (c("precond.inner_apply"), n_),
        "precond.inner_apply_s": (t("precond.inner_apply"), s_),
        "precond.outer_applies": (c("precond.outer_apply"), n_),
        "precond.outer_apply_s": (t("precond.outer_apply"), s_),
        "solver.outer_operator_s": (self_time(outer_op), s_),
        "krylov.outer_self_s": (self_time(outer), s_),
        "krylov.inner_self_s": (self_time(inner), s_),
    }
