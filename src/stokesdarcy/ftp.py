"""Discrete flux-to-pressure machinery for the porous subproblem.

Given interface data, the porous saddle problem is solved on the
homogeneous flux space (zero normal trace on the whole subdomain
boundary) with the interface values imposed by DOF lifting; the dual
residual of the solution against lifted test fields is the discrete
flux-to-pressure functional.  Composed with the interface projection it
yields the nonlocal coupling block of the free-flow system, one inner
saddle solve per application.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import precond
from .assembly import COMPAT_TOL, InvalidCaseError, pressure_integral
from .krylov import LinOp, minres

# inner MINRES defaults of the reported experiments
INNER_RTOL = 1e-2
MAXIT_INNER = 2000


class SolverFailure(RuntimeError):
    """Inner iteration failed to reach its tolerance."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class FtpResult:
    """Flux-to-pressure functional plus the recovered porous fields."""

    def __init__(self, functional, u, p, stats):
        self.functional = functional
        self.u = u
        self.p = p
        self.stats = stats


class DarcySubsolver:
    """Saddle solver for the porous block with prescribed interface flux.

    The pressure is kept in full-basis coefficients; the zero-mean
    constraint is maintained by projecting the divergence residual onto
    the span of the non-constant test functions and keeping iterates in
    {p : m.p = 0}, which reproduces the mean-zero formulation exactly.

    Parameters
    ----------
    problem : the assembled Problem; its saddle block K_D and its
        div-elliptic block Adiv_f are applied and factored as they are
    precond_kind : 'pd0' (direct div-elliptic block), 'hx' or 'hxbpx'
        (auxiliary-space block with direct nodal solves, or BPX ones
        floored at n = 8)
    mode : 'iter' for preconditioned MINRES, 'exact' for a factorized
        solve of K_D bordered by the mean vector (property tests)
    """

    def __init__(self, problem, precond_kind="pd0", rtol=INNER_RTOL,
                 maxit=MAXIT_INNER, mode="iter"):
        self.A_full = problem.A_D.tocsr()
        self.B_full = problem.B_D.tocsr()
        self.lift = problem.lift.tocsr()
        # transposes applied by every functional, built once
        self.B_fullT = self.B_full.T.tocsr()
        self.liftT = self.lift.T.tocsr()
        self.flux = problem.flux
        self.K = problem.K_D
        self.rtol = rtol
        self.maxit = maxit
        self.mode = mode

        self.free = problem.free_flux
        self.ni = len(self.free)
        self.npres = problem.dpres.ndof
        self.mvec = pressure_integral(problem.dpres)
        self._mnorm2 = self.mvec @ self.mvec

        if precond_kind == "pd0":
            vel_inv = precond.direct_inverse(problem.Adiv_f)
        elif precond_kind in ("hx", "hxbpx"):
            # exact nodal solves are the one-level hierarchy
            n_coarsest = problem.n if precond_kind == "hx" \
                else min(8, problem.n)
            vel_inv = precond.build_hx_precond(
                precond.build_hx_transfers(problem), n_coarsest)
        else:
            raise ValueError("unknown inner preconditioner %r"
                             % (precond_kind,))
        W = precond.gs_sweep(problem.M_D)
        self.pressure_inv = precond.projected_mass_inverse(W, self.mvec)
        self.precond_op = precond.block_diag_op([vel_inv, self.pressure_inv])
        self.velocity_inv = vel_inv

        if mode == "exact":
            mcol = sp.csc_matrix(
                np.concatenate([np.zeros(self.ni), self.mvec])[:, None])
            self._kkt = spla.splu(sp.bmat([[self.K, mcol], [mcol.T, None]],
                                          format="csc"))
        self.iteration_log = []

    def _project(self, q):
        return q - self.mvec * ((self.mvec @ q) / self._mnorm2)

    def operator(self):
        """K_D with its pressure rows projected onto {q : m.q = 0}."""
        K, ni = self.K, self.ni

        def apply(x):
            out = K @ x
            out[ni:] = self._project(out[ni:])
            return out

        return LinOp(K.shape[0], apply)

    def _solve_blocks(self, F, G, rtol=None):
        """Interior/pressure solve of the constrained saddle system."""
        if self.mode == "exact":
            rhs = np.concatenate([F, -G, [0.0]])
            x = self._kkt.solve(rhs)
            stats = None
            self.iteration_log.append(0)
            return x[:self.ni], self._project(x[self.ni:-1]), stats
        rhs = np.concatenate([F, -self._project(G)])
        x, stats = minres(self.operator(), rhs, Pinv=self.precond_op,
                          rtol=rtol or self.rtol, maxit=self.maxit)
        self.iteration_log.append(stats.iterations)
        if not stats.converged:
            raise SolverFailure(
                "porous solve stalled at relative residual %.3e after %d "
                "iterations" % (stats.residuals[-1] /
                                max(stats.residuals[0], 1e-300),
                                stats.iterations), stats)
        return x[:self.ni], self._project(x[self.ni:]), stats

    def solve_lifted(self, phi, rtol=None):
        """Porous fields with normal trace phi on the interface (zero on
        the outer boundary); returns full flux coefficients."""
        ul = np.asarray(self.lift @ phi).ravel()
        F = -(self.A_full @ ul)[self.free]
        G = -(self.B_full @ ul)
        ui, p, stats = self._solve_blocks(F, G, rtol)
        u = ul
        u[self.free] += ui
        return u, p, stats

    def solve_source(self, G_load, rtol=None):
        """Homogeneous-trace solve with divergence data G_load."""
        scale = max(np.abs(G_load).max(), 1.0)
        if abs(np.sum(G_load)) > COMPAT_TOL * scale:
            raise InvalidCaseError("incompatible source: (f, 1) = %.3e"
                                   % np.sum(G_load))
        ui, p, stats = self._solve_blocks(np.zeros(self.ni), G_load, rtol)
        u = np.zeros(self.flux.ndof)
        u[self.free] = ui
        return u, p, stats

    def functional(self, u, p):
        """Dual pairing of the fields against lifted interface test
        functions: the flux-to-pressure (or source residual) values."""
        return np.asarray(self.liftT @ (self.A_full @ u
                                        - self.B_fullT @ p)).ravel()


def apply_ftp(subsolver, phi):
    """Flux-to-pressure functional of interface data phi."""
    u, p, stats = subsolver.solve_lifted(np.asarray(phi, dtype=float))
    return FtpResult(subsolver.functional(u, p), u, p, stats)


def source_residual(subsolver, G_load, rtol=None):
    """Interface pressure residual due to interior sources."""
    u, p, stats = subsolver.solve_source(G_load, rtol)
    return FtpResult(subsolver.functional(u, p), u, p, stats)


class CouplingOperator:
    """Matrix-free nonlocal interface block of the free-flow system.

    apply(u) = R^T FtP(R u) with R the interface trace projection onto
    the porous trace space; exactly one porous saddle solve per call, at
    the subsolver's tolerance.
    """

    def __init__(self, R_free, subsolver):
        self.R = R_free.tocsr()
        self.RT = self.R.T.tocsr()
        self.subsolver = subsolver
        self.n = self.R.shape[1]

    def __call__(self, u):
        phi = np.asarray(self.R @ u).ravel()
        res = apply_ftp(self.subsolver, phi)
        return np.asarray(self.RT @ res.functional).ravel()
