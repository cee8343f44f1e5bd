"""Discrete flux-to-pressure machinery for the porous subproblem.

Given interface data, the porous saddle problem is solved on the
homogeneous flux space (zero normal trace on the whole subdomain
boundary) with the interface values imposed by DOF lifting; the dual
residual of the solution against lifted test fields is the discrete
flux-to-pressure functional.  Composed with the interface projection it
yields the nonlocal coupling block of the free-flow system, one inner
saddle solve per application.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import precond
from .assembly import check_compatible, pressure_integral
from .krylov import LinOp, minres

# inner MINRES defaults of the reported experiments
INNER_RTOL = 1e-2
MAXIT_INNER = 2000


class SolverFailure(RuntimeError):
    """Inner iteration failed to reach its tolerance."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


# one porous solve: full flux coefficients, pressure, the inner MINRES
# statistics (None for the factorized solve) and the flux-to-pressure
# (or source residual) functional of the fields
FtpResult = namedtuple("FtpResult", "u p stats functional")


class _DarcySolves:
    """Porous saddle solves on the Problem's blocks with prescribed
    interface flux, and their functionals; subclasses supply the
    constrained interior/pressure solve `_solve_blocks`.

    Pressures keep full-basis coefficients; iterates stay in {p : m.p =
    0} and divergence residuals are projected onto the non-constant test
    functions, which reproduces the mean-zero formulation exactly.
    """

    def __init__(self, problem):
        self.problem = problem
        self.ni = len(problem.free_flux)
        self.mvec = pressure_integral(problem.dpres)
        self._mnorm2 = self.mvec @ self.mvec
        # transposes applied by every functional, built once on the
        # interface flux DOFs sigma
        self._B_DT = problem.B_D_s.T.tocsr()
        self._liftT = problem.lift[problem.sigma].T.tocsr()
        self.iteration_log = []

    def _project(self, q):
        return q - self.mvec * ((self.mvec @ q) / self._mnorm2)

    def solve_lifted(self, phi, rtol=None):
        """The FtpResult of the porous fields with normal trace phi on the
        interface (zero on the outer boundary), solved at rtol (default:
        the subsolver's)."""
        pr = self.problem
        ul = np.asarray(pr.lift @ phi).ravel()
        # ul vanishes off sigma: only the interface columns meet it
        us = ul[pr.sigma]
        F = -(pr.A_D_fs @ us)
        G = -(pr.B_D_s @ us)
        ui, p, stats = self._solve_blocks(F, G, rtol)
        u = ul
        u[pr.free_flux] += ui
        return FtpResult(u, p, stats, self.functional(u, p))

    def functional(self, u, p):
        """Dual pairing of the fields against lifted interface test
        functions: the flux-to-pressure (or source residual) values,
        which read the dual residual on the interface flux DOFs only."""
        return np.asarray(self._liftT @ (self.problem.A_D_s @ u
                                         - self._B_DT @ p)).ravel()


class DarcySubsolver(_DarcySolves):
    """Preconditioned MINRES for the porous saddle block K_D, stopping at
    rtol or maxit.  velocity_inv is a built preconditioner of the
    div-elliptic block Adiv_f (an inner kind of `solver.KINDS`); the
    pressure block is a projected Gauss-Seidel mass sweep."""

    def __init__(self, problem, velocity_inv, rtol=INNER_RTOL,
                 maxit=MAXIT_INNER):
        super().__init__(problem)
        self.rtol = rtol
        self.maxit = maxit
        W = precond.gs_sweep(problem.M_D)
        self.precond_op = precond.block_diag_op(
            [velocity_inv, precond.projected_mass_inverse(W, self.mvec)])

    def operator(self):
        """K_D with its pressure rows projected onto {q : m.q = 0}."""
        K, ni = self.problem.K_D, self.ni

        def apply(x):
            out = K @ x
            out[ni:] = self._project(out[ni:])
            return out

        return LinOp(K.shape[0], apply)

    def _solve_blocks(self, F, G, rtol=None):
        """Interior/pressure solve of the constrained saddle system."""
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


class ExactDarcySubsolver(_DarcySolves):
    """Factorized reference for property tests: K_D bordered by the mean
    vector, solved by one LU; every solve logs 0 iterations."""

    def __init__(self, problem):
        super().__init__(problem)
        mcol = sp.csc_matrix(
            np.concatenate([np.zeros(self.ni), self.mvec])[:, None])
        self._kkt = spla.splu(sp.bmat([[problem.K_D, mcol],
                                       [mcol.T, None]], format="csc"))

    def _solve_blocks(self, F, G, rtol=None):
        x = self._kkt.solve(np.concatenate([F, -G, [0.0]]))
        self.iteration_log.append(0)
        return x[:self.ni], self._project(x[self.ni:-1]), None


def source_residual(subsolver, G_load, rtol=None):
    """Interface pressure residual due to interior sources: the
    homogeneous-trace solve with divergence data G_load."""
    check_compatible(G_load)
    ui, p, stats = subsolver._solve_blocks(np.zeros(subsolver.ni), G_load,
                                           rtol)
    u = np.zeros(subsolver.problem.flux.ndof)
    u[subsolver.problem.free_flux] = ui
    return FtpResult(u, p, stats, subsolver.functional(u, p))


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

    def solve(self, u, rtol=None):
        """The porous solve behind one apply: FtP of the interface data
        R u of free-flow velocities u, at rtol (default: the
        subsolver's)."""
        return self.subsolver.solve_lifted(self.R @ u, rtol)

    def __call__(self, u):
        return self.RT @ self.solve(u).functional
