"""Error norms against the reference fields and empirical convergence rates."""

import math

import numpy as np

from . import quadrature
from .fespace import ref_basis

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


def _integral(space, w, vals):
    """Quadrature sum of point values (nt, nq) over the space's triangles."""
    return np.einsum("q,t,tq->", w, space.geom.det, vals)


def velocity_h1_error(vel, coeffs, u_exact, grad_exact):
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    vals, grads = ref_basis(sc.family, pts)
    nt, nq = len(sc.tris), len(w)
    c = coeffs[vel.cell_dofs].reshape(nt, -1, 2)  # (nt, nloc, 2)
    eu = sc.geom.evaluate(u_exact, pts) - vals.T @ c
    # reference gradients of both components first, the affine map last:
    # rows (component, point), columns the reference, then the physical
    # direction
    ref = np.swapaxes(c, 1, 2) @ grads.reshape(len(vals), -1)
    uh = ref.reshape(nt, 2 * nq, 2) @ np.swapaxes(sc.geom.invJT, 1, 2)
    eg = sc.geom.evaluate(grad_exact, pts) \
        - np.swapaxes(uh.reshape(nt, 2, nq, 2), 1, 2)
    return math.sqrt(_integral(sc, w, (eu ** 2).sum(-1)
                               + (eg ** 2).sum((-2, -1))))


def scalar_l2_error(space, coeffs, exact):
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    err = space.geom.evaluate(exact, pts) \
        - coeffs[space.cell_dofs] @ space.values(pts)
    return math.sqrt(_integral(space, w, err ** 2))


def flux_hdiv_error(flux, coeffs, u_exact, div_exact):
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    uh, dh = flux.field(coeffs, pts)
    eu = flux.geom.evaluate(u_exact, pts) - uh
    ed = flux.geom.evaluate(div_exact, pts) - dh
    return math.sqrt(_integral(flux, w, (eu ** 2).sum(-1) + ed ** 2))


def compute_errors(report, case=None):
    """Error record of a coupled solve against the reference fields."""
    pr = report.problem
    case = case or pr.case
    return ErrorRecord(
        pr.dof_total, pr.h,
        velocity_h1_error(pr.vel, report.u_S, case.u_S, case.grad_u_S),
        scalar_l2_error(pr.pres, report.p_S, case.p_S),
        flux_hdiv_error(pr.flux, report.u_D, case.u_D, case.div_u_D),
        scalar_l2_error(pr.dpres, report.p_D, case.p_D))


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
