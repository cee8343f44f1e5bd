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
from .assembly import InvalidCaseError, pressure_integral
from .krylov import LinOp, minres


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
    precond_kind : 'pd0' (direct div-elliptic block), 'hx' or 'hxbpx'
        (auxiliary-space block with direct or BPX nodal solves)
    mode : 'iter' for preconditioned MINRES, 'exact' for a factorized
        solve of the constraint-augmented system (property tests)
    """

    def __init__(self, A_D, B_D, D_D, M_D, flux, dpres, lift, params,
                 precond_kind="pd0", rtol=1e-2, maxit=2000, mode="iter",
                 mass_mode="auto"):
        self.A_full = A_D.tocsr()
        self.B_full = B_D.tocsr()
        self.lift = lift.tocsr()
        self.flux = flux
        self.dpres = dpres
        self.params = params
        self.rtol = rtol
        self.maxit = maxit
        self.mode = mode
        self.precond_kind = precond_kind

        self.free = np.where(~flux.on_boundary)[0]
        self.ni = len(self.free)
        self.npres = dpres.ndof
        self.Aii = A_D[np.ix_(self.free, self.free)].tocsr()
        self.Bi = B_D[:, self.free].tocsr()
        # transposes applied inside the Krylov loops, built once
        self.BiT = self.Bi.T.tocsr()
        self.B_fullT = self.B_full.T.tocsr()
        self.liftT = self.lift.T.tocsr()
        self.mvec = pressure_integral(dpres)
        self._mnorm2 = self.mvec @ self.mvec

        ADD = (A_D + D_D)[np.ix_(self.free, self.free)].tocsr()
        if precond_kind == "pd0":
            vel_inv = precond.direct_inverse(ADD)
            self.hx = None
        elif precond_kind in ("hx", "hxbpx"):
            self.hx = precond.build_hx_transfers(
                flux, params, free_flux=self.free,
                operator_matrices=(A_D, D_D))
            if precond_kind == "hx":
                vel_inv = precond.build_hx_precond(self.hx, "direct")
            else:
                family = "p1" if flux.family == "bdm1" else "p2"
                hier = precond.hx_nodal_hierarchy(flux.mesh.n, family,
                                                  params.tau)
                vel_inv = precond.build_hx_precond(self.hx, "bpx", hier)
        else:
            raise ValueError("unknown inner preconditioner %r"
                             % (precond_kind,))
        W = precond.mass_inverse(M_D, mass_mode)
        self.pressure_inv = precond.projected_mass_inverse(W, self.mvec)
        self.precond_op = precond.block_diag_op([vel_inv, self.pressure_inv])
        self.velocity_inv = vel_inv

        if mode == "exact":
            mcol = sp.csc_matrix(self.mvec[:, None])
            K = sp.bmat([[self.Aii, -self.Bi.T, None],
                         [-self.Bi, None, mcol],
                         [None, mcol.T, None]], format="csc")
            self._kkt = spla.splu(K)
        self.nsolves = 0
        self.iteration_log = []

    def _project(self, q):
        return q - self.mvec * ((self.mvec @ q) / self._mnorm2)

    def operator(self):
        ni = self.ni

        def apply(x):
            u, p = x[:ni], x[ni:]
            out = np.empty_like(x)
            out[:ni] = self.Aii @ u - self.BiT @ p
            out[ni:] = -self._project(self.Bi @ u)
            return out

        return LinOp(ni + self.npres, apply)

    def _solve_blocks(self, F, G, rtol=None):
        """Interior/pressure solve of the constrained saddle system."""
        self.nsolves += 1
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

    def solve_source(self, G_load, rtol=None, compat_tol=1e-10):
        """Homogeneous-trace solve with divergence data G_load."""
        scale = max(np.abs(G_load).max(), 1.0)
        if abs(np.sum(G_load)) > compat_tol * scale:
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


def apply_ftp(subsolver, phi, rtol=None):
    """Flux-to-pressure functional of interface data phi."""
    u, p, stats = subsolver.solve_lifted(np.asarray(phi, dtype=float), rtol)
    return FtpResult(subsolver.functional(u, p), u, p, stats)


def source_residual(subsolver, G_load, rtol=None):
    """Interface pressure residual due to interior sources."""
    u, p, stats = subsolver.solve_source(G_load, rtol)
    return FtpResult(subsolver.functional(u, p), u, p, stats)


class CouplingOperator:
    """Matrix-free nonlocal interface block of the free-flow system.

    apply(u) = R^T FtP(R u) with R the interface trace projection onto
    the porous trace space; exactly one porous saddle solve per call.
    """

    def __init__(self, R_free, subsolver, rtol=None):
        self.R = R_free.tocsr()
        self.RT = self.R.T.tocsr()
        self.subsolver = subsolver
        self.rtol = rtol
        self.n = self.R.shape[1]

    def __call__(self, u):
        phi = np.asarray(self.R @ u).ravel()
        res = apply_ftp(self.subsolver, phi, self.rtol)
        return np.asarray(self.RT @ res.functional).ravel()
