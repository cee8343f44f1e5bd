"""Error norms against the reference fields and empirical convergence rates."""

import math

import numpy as np

from . import quadrature
from .fespace import ref_basis
from .mesh import row_blocks

ERROR_QDEG = 10


class ErrorRecord:
    """Discretization errors of one solve, plus mesh metadata.

    e_uS is the full H1 norm over the free-flow half, e_uD the graph
    norm of the flux (field plus divergence), the pressures plain L2.
    """

    def __init__(self, dof, h, e_uS, e_pS, e_uD, e_pD):
        self.dof = dof
        self.h = h
        self.e_uS = e_uS
        self.e_pS = e_pS
        self.e_uD = e_uD
        self.e_pD = e_pD

    def as_tuple(self):
        return (self.e_uS, self.e_pS, self.e_uD, self.e_pD)

    def __repr__(self):
        return ("ErrorRecord(dof=%d, h=%g, e_uS=%.3e, e_pS=%.3e, "
                "e_uD=%.3e, e_pD=%.3e)" % ((self.dof, self.h)
                                           + self.as_tuple()))


def _integral(space, w, vals, rows=slice(None)):
    """Quadrature sum of point values (nt, nq) over the space's triangles
    (those of ``rows``)."""
    return np.einsum("q,t,tq->", w, space.geom.det[rows], vals)


def velocity_h1_error(vel, coeffs, u, grad):
    """H1 error against exact values u and gradients grad (nt, nq, ...),
    one block of triangles at a time."""
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    vals, grads = ref_basis(sc.family, pts)
    nt, nq = len(sc.tris), len(w)
    c = coeffs[vel.cell_dofs].reshape(nt, -1, 2)  # (nt, nloc, 2)
    total = 0.0
    for rows in row_blocks(nt):
        cr = c[rows]
        eu = u[rows] - vals.T @ cr
        # reference gradients of both components first, the affine map
        # last: rows (component, point), columns the reference, then the
        # physical direction
        uh = (np.swapaxes(cr, 1, 2) @ grads.reshape(len(vals), -1)).reshape(
            len(cr), 2 * nq, 2) @ np.swapaxes(sc.geom.invJT[rows], 1, 2)
        eg = grad[rows] - np.swapaxes(uh.reshape(-1, 2, nq, 2), 1, 2)
        # squares in place: the error arrays are the largest temporaries
        total += _integral(sc, w, np.square(eu, out=eu).sum(-1)
                           + np.square(eg, out=eg).sum((-2, -1)), rows)
    return math.sqrt(total)


def scalar_l2_error(space, coeffs, exact):
    """L2 error against exact values (nt, nq)."""
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    err = exact - coeffs[space.cell_dofs] @ space.values(pts)
    return math.sqrt(_integral(space, w, np.square(err, out=err)))


def flux_hdiv_error(flux, coeffs, u, div):
    """Graph-norm error against exact values u and div (nt, nq, ...)."""
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    eu, ed = flux.field(coeffs, pts)
    eu, ed = np.square(eu - u, out=eu), np.square(ed - div, out=ed)
    return math.sqrt(_integral(flux, w, eu.sum(-1) + ed))


def _fields(evaluator, *names):
    return lambda X: tuple(getattr(evaluator(X), name) for name in names)


def compute_errors(report, case=None):
    """Error record of a coupled solve against the reference fields."""
    pr = report.problem
    case = case or pr.case
    pts = quadrature.triangle_rule(ERROR_QDEG)[0]
    geom = pr.vel.scalar.geom
    u, grad, p = geom.evaluate(_fields(case.stokes, "u", "grad_u", "p"), pts)
    if pr.pres.geom is not geom:
        p = pr.pres.geom.evaluate(case.p_S, pts)
    e_uS = velocity_h1_error(pr.vel, report.u_S, u, grad)
    e_pS = scalar_l2_error(pr.pres, report.p_S, p)
    u, div, p = pr.flux.geom.evaluate(_fields(case.darcy, "u", "div_u", "p"),
                                      pts)
    return ErrorRecord(pr.dof_total, pr.h, e_uS, e_pS,
                       flux_hdiv_error(pr.flux, report.u_D, u, div),
                       scalar_l2_error(pr.dpres, report.p_D, p))


class RateRecord:
    """Empirical convergence rates between two consecutive records."""

    def __init__(self, r_uS, r_pS, r_uD, r_pD):
        self.r_uS = r_uS
        self.r_pS = r_pS
        self.r_uD = r_uD
        self.r_pD = r_pD

    def as_tuple(self):
        return (self.r_uS, self.r_pS, self.r_uD, self.r_pD)


def rate(e_coarse, e_fine, h_coarse, h_fine):
    if e_fine == 0.0 or e_coarse == 0.0:
        return float("nan")
    return math.log(e_coarse / e_fine) / math.log(h_coarse / h_fine)


def compute_rates(coarse, fine):
    """Rates log(e/e') / log(h/h') between consecutive mesh levels."""
    if not np.isclose(fine.h / coarse.h, 0.5):
        raise ValueError("rates are defined for successive halvings only")
    return RateRecord(*(rate(ec, ef, coarse.h, fine.h)
                        for ec, ef in zip(coarse.as_tuple(),
                                          fine.as_tuple())))
