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
    """Quadrature sum of point values (nt, nq, ...) over the space's
    triangles (those of ``rows``), trailing axes summed as well: two
    matrix-vector products, with no reduction over short axes."""
    weights = np.repeat(w, math.prod(vals.shape[2:]))
    return (vals.reshape(len(vals), -1) @ weights) @ space.geom.det[rows]


# Squared errors on the triangles of ``rows``, against exact values given
# at the points of the degree-ERROR_QDEG rule mapped onto those triangles,
# one (nb, nq, ...) array per field: compute_errors adds them up block by
# block.

def velocity_h1_sq(vel, coeffs, u, grad, rows=slice(None)):
    """Squared H1 error against exact values u and gradients grad."""
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    vals, grads = ref_basis(sc.family, pts)
    nq = len(w)
    c = coeffs[vel.cell_dofs[rows]].reshape(len(u), -1, 2)  # (nb, nloc, 2)
    eu = u - vals.T @ c
    # reference gradients of both components first, the affine map last:
    # rows (component, point), columns the reference, then the physical
    # direction
    uh = (np.swapaxes(c, 1, 2) @ grads.reshape(len(vals), -1)).reshape(
        len(c), 2 * nq, 2) @ np.swapaxes(sc.geom.invJT[rows], 1, 2)
    eg = grad - np.swapaxes(uh.reshape(-1, 2, nq, 2), 1, 2)
    # squares in place: the error arrays are the largest temporaries
    return (_integral(sc, w, np.square(eu, out=eu), rows)
            + _integral(sc, w, np.square(eg, out=eg), rows))


def scalar_l2_sq(space, coeffs, exact, rows=slice(None)):
    """Squared L2 error against exact values."""
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    err = exact - coeffs[space.cell_dofs[rows]] @ space.values(pts)
    return _integral(space, w, np.square(err, out=err), rows)


def flux_hdiv_sq(flux, coeffs, X, u, div, rows=slice(None)):
    """Squared graph-norm error against exact values u and div, X the
    mapped points."""
    w = quadrature.triangle_rule(ERROR_QDEG)[1]
    eu, ed = flux.field_at(coeffs, X, rows)
    return (_integral(flux, w, np.square(eu - u, out=eu), rows)
            + _integral(flux, w, np.square(ed - div, out=ed), rows))


def _mapped_blocks(geom):
    """(rows, X) for each block of the geometry's triangles, X the images
    (nb, nq, 2) of the error rule's points."""
    pts = quadrature.triangle_rule(ERROR_QDEG)[0]
    for rows in row_blocks(len(geom.det)):
        yield rows, geom.map_points(pts, rows)


def compute_errors(report, case=None):
    """Error record of a coupled solve against the reference fields.

    One pass per region over blocks of triangles: each block's points are
    mapped once and the region's evaluator is called once on them, so no
    array spans a whole region.
    """
    pr = report.problem
    case = case or pr.case
    e_uS = e_pS = e_uD = e_pD = 0.0
    geom = pr.vel.scalar.geom
    shared = pr.pres.geom is geom
    for rows, X in _mapped_blocks(geom):
        S = case.stokes(X)
        e_uS += velocity_h1_sq(pr.vel, report.u_S, S.u, S.grad_u, rows)
        if shared:
            e_pS += scalar_l2_sq(pr.pres, report.p_S, S.p, rows)
    if not shared:
        # a pressure on a coarser mesh of its own (the iso pair)
        for rows, X in _mapped_blocks(pr.pres.geom):
            e_pS += scalar_l2_sq(pr.pres, report.p_S, case.stokes(X).p, rows)
    for rows, X in _mapped_blocks(pr.flux.geom):
        D = case.darcy(X)
        e_uD += flux_hdiv_sq(pr.flux, report.u_D, X, D.u, D.div_u, rows)
        e_pD += scalar_l2_sq(pr.dpres, report.p_D, D.p, rows)
    return ErrorRecord(pr.dof_total, pr.h, *(math.sqrt(e) for e in
                                             (e_uS, e_pS, e_uD, e_pD)))


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
