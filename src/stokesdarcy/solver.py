"""Decoupled nested solve of the coupled free-flow / porous problem,
the monolithic reference solve, and stability-constant estimation."""

import time
from collections import namedtuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, ftp, precond
from .assembly import PhysicalParams
from .fespace import (REGION_D, REGION_S, FluxSpace, Space, TraceSpace,
                      VectorSpace, drop_roundoff, nodal_prolongation,
                      sigma_flux_maps, vector_expand)
from .ftp import INNER_RTOL, MAXIT_INNER
from .krylov import LinOp, minres
from .manufactured import ManufacturedCase
from .mesh import build_unit_square, mesh_hierarchy

PAIRS = {
    "mini-bdm1": ("p1b", "p1", "bdm1", "p0dc"),
    "p2isop1-bdm1": ("p1", "p1", "bdm1", "p0dc"),
    "taylorhood-rt1": ("p2", "p1", "rt1", "p1dc"),
}
_ALIASES = {"mini": "mini-bdm1", "iso": "p2isop1-bdm1",
            "p2isop1": "p2isop1-bdm1", "th": "taylorhood-rt1",
            "taylorhood": "taylorhood-rt1"}


def canonical_pair(name):
    key = name.lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    if key not in PAIRS:
        raise ValueError("unknown element pair %r" % (name,))
    return key


def check_mesh_size(pair, n):
    """Raise ValueError unless n subdivisions suit the pair: n even and
    >= 2, and divisible by 4 for the iso pair."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2, got %d" % n)
    if canonical_pair(pair) == "p2isop1-bdm1" and n % 4:
        raise ValueError("the iso pair needs n divisible by 4 (the "
                         "pressure lives on the n/2 mesh), got %d" % n)


class Problem:
    """Assembled discrete problem for one element pair and mesh size."""

    def __init__(self, pair, n, params=None, case=None):
        pair = canonical_pair(pair)
        vfam, pfam, ffam, qfam = PAIRS[pair]
        check_mesh_size(pair, n)
        self.pair = pair
        self.n = n
        self.h = 1.0 / n
        self.params = params or PhysicalParams()
        self.case = case or ManufacturedCase()

        self.mesh = build_unit_square(n)
        self.vel = VectorSpace(Space(self.mesh, vfam, REGION_S))
        if pair == "p2isop1-bdm1":
            self.pres = Space(build_unit_square(n // 2), pfam, REGION_S)
            fine_p = Space(self.mesh, pfam, REGION_S)
            E = nodal_prolongation(self.pres, fine_p)
        else:
            self.pres = Space(self.mesh, pfam, REGION_S)
            E = None
        self.flux = FluxSpace(self.mesh, ffam)
        self.dpres = Space(self.mesh, qfam, REGION_D)
        self.trace = TraceSpace(self.mesh)
        self.lift, self.ntrace = sigma_flux_maps(self.flux, self.trace)

        p = self.params
        A_S = assembly.stokes_velocity_matrix(self.vel, p)
        if E is None:
            B_S = assembly.divergence_matrix(self.vel, self.pres)
            self.M_S = assembly.scalar_mass(self.pres)
        else:
            B_S = drop_roundoff(
                E.T @ assembly.divergence_matrix(self.vel, fine_p))
            self.M_S = drop_roundoff(E.T @ assembly.scalar_mass(fine_p) @ E)
        _, R = assembly.assemble_interface(self.vel, self.trace)

        # each operator is kept once: the free-flow and porous saddle
        # blocks and the div-elliptic porous block on the free DOFs, and
        # the porous blocks the lifted interface data meets, on the
        # interface flux DOFs sigma (the rows of lift that hold entries).
        # The full-size forms go as soon as their blocks are built, so
        # the build never holds the free-flow and the porous ones at once.
        self.free_vel = np.where(~self.vel.on_gamma)[0]
        A_ff = A_S[np.ix_(self.free_vel, self.free_vel)].tocsr()
        B_Sf = B_S[:, self.free_vel].tocsr()
        self.R_f = R[:, self.free_vel].tocsr()
        self.K_S = sp.bmat([[A_ff, -B_Sf.T], [-B_Sf, None]], format="csr")
        del A_S, B_S, R, A_ff, B_Sf

        A_D, B_D, D_D, self.M_D = assembly.assemble_darcy(
            self.flux, self.dpres, p)
        self.free_flux = precond.interior_dofs(self.flux)
        ff = np.ix_(self.free_flux, self.free_flux)
        B_Di = B_D[:, self.free_flux]
        self.K_D = sp.bmat([[A_D[ff], -B_Di.T], [-B_Di, None]],
                           format="csr")
        self.Adiv_f = (A_D + D_D)[ff].tocsr()
        self.sigma = np.flatnonzero(np.diff(self.lift.indptr))
        self.A_D_fs = A_D[np.ix_(self.free_flux, self.sigma)].tocsr()
        self.A_D_s = A_D[self.sigma].tocsr()
        self.B_D_s = B_D[:, self.sigma].tocsr()
        del A_D, B_D, D_D, B_Di

        self.F_S = assembly.stokes_load(self.vel, self.case, p)
        self.G_D = assembly.darcy_load(self.dpres, self.case)
        self.mvec = assembly.pressure_integral(self.dpres)

    @property
    def A_ff(self):
        """The free-flow velocity block, K_S's leading block (a copy of
        its rows, sliced on each read)."""
        nf = len(self.free_vel)
        return self.K_S[:nf, :nf]

    @property
    def dof_total(self):
        """Raw total of the four space dimensions (the table convention)."""
        return (self.vel.ndof + self.pres.ndof
                + self.flux.ndof + self.dpres.ndof)


# outer MINRES defaults of the reported experiments
OUTER_RTOL = 1e-6
MAXIT_OUTER = 1600
# loosest tolerance of the porous source and recovery solves
RECOVERY_RTOL = 1e-8
DEFAULT_COMBO = "direct:pd0"
# multilevel hierarchies halve while above this size (mesh_hierarchy)
BPX_FLOOR = 8


class SolveConfig:
    """Solve parameters; defaults follow the reported experiments.

    The porous source and recovery solves run at recovery_rtol, the
    tighter of RECOVERY_RTOL and the inner tolerance.
    """

    def __init__(self, pair, n, outer_rtol=OUTER_RTOL, inner_rtol=INNER_RTOL,
                 combo=DEFAULT_COMBO, maxit_inner=MAXIT_INNER):
        check_tolerances(outer_rtol, inner_rtol)
        if maxit_inner < 1:
            raise ValueError("maxit_inner must be >= 1, got %r"
                             % (maxit_inner,))
        self.pair = canonical_pair(pair)
        self.n = n
        self.outer_rtol = outer_rtol
        self.inner_rtol = inner_rtol
        self.combo = parse_combo(combo)
        self.maxit_inner = maxit_inner
        self.recovery_rtol = min(RECOVERY_RTOL, inner_rtol)


def check_tolerances(outer_rtol, inner_rtol):
    """Raise ValueError unless both relative tolerances lie in (0, 1)."""
    for name, rtol in (("outer_rtol", outer_rtol), ("inner_rtol", inner_rtol)):
        if not 0.0 < rtol < 1.0:
            raise ValueError("%s must lie in (0, 1), got %r" % (name, rtol))


def _dissected_inverse(M, space, free):
    """Exact inverse of the SPD block M on the DOFs `free` of `space`,
    factored in the mesh's nested-dissection order of their nodes."""
    return precond.direct_inverse(M, space.mesh.dissection(space.nodes[free]))


# The preconditioner kinds of the reported tables, for the free-flow
# velocity block (outer) and the div-elliptic porous block (inner): table
# label and the builder problem -> block, which looks its routines up
# when called.
Kind = namedtuple("Kind", "role label build")
KINDS = {
    "direct": Kind("outer", "PS_dir",
                   lambda pr: _dissected_inverse(pr.A_ff, pr.vel,
                                                 pr.free_vel)),
    "bpx": Kind("outer", "PS_bpx", lambda pr: stokes_velocity_bpx(pr)),
    "pd0": Kind("inner", "PD0",
                lambda pr: _dissected_inverse(pr.Adiv_f, pr.flux,
                                              pr.free_flux)),
    # exact nodal solves are the one-level hierarchy
    "hx": Kind("inner", "PD_hx",
               lambda pr: precond.build_hx_precond(pr, pr.n)),
    "hxbpx": Kind("inner", "PD_hxbpx",
                  lambda pr: precond.build_hx_precond(
                      pr, min(BPX_FLOOR, pr.n))),
}
OUTER_KINDS, INNER_KINDS = (tuple(k for k in KINDS if KINDS[k].role == role)
                            for role in ("outer", "inner"))


def parse_combo(combo):
    """The (outer, inner) kinds of a combo, lowercase and validated: an
    'outer:inner' name such as 'direct:pd0' or 'bpx:hx', or a pair."""
    if isinstance(combo, str):
        parts = combo.split(":")
    else:
        parts = tuple(combo) if np.iterable(combo) else ()
    if len(parts) != 2 or not all(isinstance(p, str) for p in parts):
        raise ValueError("combo must look like 'outer:inner', got %r"
                         % (combo,))
    outer, inner = (p.strip().lower() for p in parts)
    if outer not in OUTER_KINDS or inner not in INNER_KINDS:
        raise ValueError("unknown combo %r (outer in %s, inner in %s)"
                         % (combo, OUTER_KINDS, INNER_KINDS))
    return outer, inner


def combo_label(combo):
    return "%s(%s)" % (KINDS[combo[0]].label, KINDS[combo[1]].label)


class SolveReport:
    """Fields and iteration statistics of one coupled solve.

    true_residual is ||b - A x||_P / ||b||_P of the coupled free-flow
    system, P the outer preconditioner and the coupling in A applied at
    recovery_rtol; None for the factorized monolithic solve.
    """

    def __init__(self, problem, config, u_S, p_S, u_D, p_D,
                 outer_iterations, inner_counts, residuals, converged,
                 wall_time, true_residual=None):
        self.problem = problem
        self.config = config
        self.u_S = u_S
        self.p_S = p_S
        self.u_D = u_D
        self.p_D = p_D
        self.outer_iterations = outer_iterations
        self.inner_counts = list(inner_counts)
        self.residuals = residuals
        self.converged = converged
        self.wall_time = wall_time
        self.true_residual = true_residual

    @property
    def mean_inner(self):
        if not self.inner_counts:
            return 0.0
        return float(np.mean(self.inner_counts))


def bpx_coarsest(n, enriched=False):
    """Floor of the multilevel hierarchy (mesh_hierarchy halves down to it
    where nesting allows): BPX_FLOOR; the bubble-enriched pair counts its
    embedded linear level as a level of its own, pure nodal pairs ask for
    at least two nodal levels."""
    if n > BPX_FLOOR:
        return BPX_FLOOR
    return n if enriched else max(2, n // 2)


def stokes_velocity_bpx(problem):
    """Multilevel hierarchy for the free-flow velocity block, ending at
    the problem's own space and block A_ff: for the bubble-enriched pair
    on top of the linear level of the same mesh (its Jacobi scaling covers
    the bubbles), for a nodal pair in place of the finest nodal level."""
    n_coarsest = bpx_coarsest(problem.n, problem.vel.scalar.family == "p1b")
    return precond.build_bpx(*precond.nodal_levels(
        mesh_hierarchy(problem.mesh, n_coarsest), problem.vel, problem.A_ff,
        lambda v: assembly.stokes_velocity_matrix(v, problem.params),
        lambda v: np.where(~v.on_gamma)[0]))


def outer_preconditioner(problem, config):
    """Block-diagonal free-flow preconditioner for the chosen combo."""
    vel_inv = KINDS[config.combo[0]].build(problem)
    return precond.block_diag_op([vel_inv, precond.gs_sweep(problem.M_S)])


def _outer_operator(problem, coupling):
    """K_S, plus the nonlocal coupling on the velocity rows."""
    K, nf = problem.K_S, len(problem.free_vel)

    def apply(x):
        out = K @ x
        if coupling is not None:
            out[:nf] += coupling(x[:nf])
        return out

    return LinOp(K.shape[0], apply)


def solve_coupled(problem, config=None):
    """Nested decoupled solve: outer residual-minimizing iteration on the
    interface-condensed free-flow system, porous fields by splitting.
    The config must name the problem's pair and mesh size."""
    t0 = time.perf_counter()
    config = config or SolveConfig(problem.pair, problem.n)
    if (config.pair, config.n) != (problem.pair, problem.n):
        raise ValueError("config for %s at n=%d cannot solve the %s problem "
                         "at n=%d" % (config.pair, config.n, problem.pair,
                                      problem.n))
    subsolver = ftp.DarcySubsolver(
        problem, KINDS[config.combo[1]].build(problem),
        rtol=config.inner_rtol, maxit=config.maxit_inner)

    gamma_res = ftp.source_residual(subsolver, problem.G_D,
                                    rtol=config.recovery_rtol)
    nf = len(problem.free_vel)
    ell = problem.F_S[problem.free_vel] \
        - np.asarray(problem.R_f.T @ gamma_res.functional).ravel()
    rhs = np.concatenate([ell, np.zeros(problem.pres.ndof)])

    P = outer_preconditioner(problem, config)
    stokes_op = _outer_operator(problem, None)
    x_init, init_stats = minres(stokes_op, rhs, Pinv=P,
                                rtol=config.outer_rtol, maxit=MAXIT_OUTER)

    coupling = ftp.CouplingOperator(problem.R_f, subsolver)
    full_op = _outer_operator(problem, coupling)
    mark = len(subsolver.iteration_log)
    x, stats = minres(full_op, rhs, Pinv=P, x0=x_init,
                      rtol=config.outer_rtol, maxit=MAXIT_OUTER)
    inner_counts = subsolver.iteration_log[mark:]

    u_Sf, p_S = x[:nf], x[nf:]
    u_S = np.zeros(problem.vel.ndof)
    u_S[problem.free_vel] = u_Sf
    # the recovery solve is one coupling apply at recovery_rtol: the
    # residual of the coupled system with it, in the norm MINRES stops on
    recovery = coupling.solve(u_Sf, config.recovery_rtol)
    r = rhs - stokes_op(x)
    r[:nf] -= coupling.RT @ recovery.functional
    # the warm start began from zero: its first residual is ||rhs||_P
    true_residual = np.sqrt(max(r @ P(r), 0.0)) \
        / max(init_stats.residuals[0], 1e-300)
    # both parts of p_D already have zero mean on the porous half
    u_D = gamma_res.u + recovery.u
    p_D = gamma_res.p + recovery.p
    return SolveReport(problem, config, u_S, p_S, u_D, p_D,
                       stats.iterations, inner_counts, stats.residuals,
                       stats.converged, time.perf_counter() - t0,
                       true_residual)


def solve_monolithic_oracle(problem):
    """Direct factorized solve of the fully coupled discrete system, in
    the free velocity and interior flux DOFs and both pressures, bordered
    by the mean of p_D.  S maps the velocity unknowns onto the free
    velocity DOFs, the glue Z onto all flux DOFs (the interface ones
    through the trace projection, lift @ R_f).  The full porous forms
    are assembled here, for this solve only."""
    t0 = time.perf_counter()
    nf, ni = len(problem.free_vel), len(problem.free_flux)
    nps = problem.pres.ndof
    A_D, B_D = assembly.assemble_darcy(problem.flux, problem.dpres,
                                       problem.params)[:2]
    S = sp.eye(nf, nf + ni, format="csr")
    I_i = sp.eye(problem.flux.ndof, format="csr")[:, problem.free_flux]
    Z = sp.hstack([problem.lift @ problem.R_f, I_i], format="csr")
    A = S.T @ problem.A_ff @ S + Z.T @ A_D @ Z
    B = sp.vstack([-problem.K_S[nf:, :nf] @ S, B_D @ Z])
    m = sp.csc_matrix(np.concatenate([np.zeros(nps), problem.mvec])[:, None])
    K = sp.bmat([[A, -B.T, None], [-B, None, m], [None, m.T, None]],
                format="csc")
    rhs = np.concatenate([problem.F_S[problem.free_vel], np.zeros(ni + nps),
                          -problem.G_D, [0.0]])
    x = spla.spsolve(K, rhs)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("monolithic system is singular; the interface "
                           "constraint elimination is inconsistent")
    u_S = np.zeros(problem.vel.ndof)
    u_S[problem.free_vel] = x[:nf]
    p_S, p_D = x[nf + ni:nf + ni + nps], x[nf + ni + nps:-1]
    return SolveReport(problem, SolveConfig(problem.pair, problem.n), u_S,
                       p_S, Z @ x[:nf + ni], p_D, 0, [], [0.0], True,
                       time.perf_counter() - t0)


def _infsup_from_matrices(B, X, M, mvec):
    """Smallest nonzero singular value of the divergence coupling in the
    (X-norm, M-norm) pair over zero-mean pressures, by dense eigensolve."""
    from scipy.linalg import eigh, null_space
    Xd = X.toarray()
    Bd = B.toarray()
    Md = M.toarray()
    S = Bd @ np.linalg.solve(Xd, Bd.T)
    Z = null_space(mvec[None, :])
    Sz = Z.T @ S @ Z
    Mz = Z.T @ Md @ Z
    evals = eigh(Sz, Mz, eigvals_only=True)
    tol = max(evals[-1], 1.0) * 1e-12
    pos = evals[evals > tol]
    return float(np.sqrt(pos[0])) if len(pos) else 0.0


def _infsup_stokes(vel, pres, B, M, dofs=None):
    """Stokes inf-sup constant from the divergence block B, whose columns
    are the velocity DOFs `dofs` (sorted; default all), and the pressure
    mass M; the velocity vanishes on the whole boundary, interface too."""
    free = precond.interior_dofs(vel)
    cols = free if dofs is None else np.searchsorted(dofs, free)
    sc = vel.scalar
    X = vector_expand(assembly.scalar_stiffness(sc)
                      + assembly.scalar_mass(sc))[np.ix_(free, free)]
    mvec = assembly.pressure_integral(pres)
    return _infsup_from_matrices(B[:, cols], X, M, mvec)


def infsup_stokes(mesh, vfam, pfam):
    """Divergence inf-sup constant of a velocity/pressure pair on one
    mesh, on the free-flow half with full homogeneous boundary
    conditions."""
    vel = VectorSpace(Space(mesh, vfam, REGION_S))
    pres = Space(mesh, pfam, REGION_S)
    return _infsup_stokes(vel, pres, assembly.divergence_matrix(vel, pres),
                          assembly.scalar_mass(pres))


def infsup_darcy(problem):
    """Divergence inf-sup constant of a Problem's flux/pressure pair on
    the porous half with vanishing normal trace on the whole boundary."""
    A1, D1 = assembly.flux_operator_matrices(problem.flux, 1.0)
    free = problem.free_flux
    X = (A1 + D1)[np.ix_(free, free)]
    # B_D on the interior flux DOFs is -K_D's lower-left block
    B_Di = -problem.K_D[len(free):, :len(free)]
    return _infsup_from_matrices(B_Di, X, problem.M_D, problem.mvec)


def estimate_infsup(pair, n):
    """Inf-sup constants of both half-problems of one element pair, on
    the spaces and blocks of Problem(pair, n)."""
    pr = Problem(pair, n)
    # B_S on the free velocity DOFs is -K_S's lower-left block
    nf = len(pr.free_vel)
    return {"beta_S": _infsup_stokes(pr.vel, pr.pres, -pr.K_S[nf:, :nf],
                                     pr.M_S, pr.free_vel),
            "beta_D": infsup_darcy(pr)}
