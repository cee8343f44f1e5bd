"""Assembly of the bilinear forms, interface coupling and load vectors."""

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .fespace import csr_from_triplets, drop_roundoff, ref_basis
from .mesh import blockwise

# quadrature degree 2*(basis degree)+2 per family
_QDEG = {"p1": 4, "p1dc": 4, "p0dc": 2, "p2": 6, "p1b": 8, "bdm1": 4, "rt1": 6}
# degree of the rule integrating the (non-polynomial) load data
LOAD_QDEG = 10
# largest admissible integral of a porous source (see check_compatible)
COMPAT_TOL = 1e-10


class InvalidCaseError(ValueError):
    """Raised when load data violates a solvability requirement."""


class PhysicalParams:
    """Viscosity nu, interface friction kappa, inverse permeability tau."""

    def __init__(self, nu=1.0, kappa=1.0, tau=1.0):
        if not all(0 < v < np.inf for v in (nu, kappa, tau)):
            raise ValueError("physical parameters must be positive and "
                             "finite")
        self.nu = nu
        self.kappa = kappa
        self.tau = tau


def _scatter(rows, cols, vals, shape):
    """Element-block scatter: rows (nt, a), cols (nt, b), vals (nt, a, b)."""
    return csr_from_triplets(rows[:, :, None], cols[:, None, :], vals, shape)


def _ref_gradients(family, pts):
    """Reference gradients (2, nloc, nq) of a nodal family's basis."""
    return np.moveaxis(ref_basis(family, pts)[1], 2, 0)


def _push_forward(geom, ref, order, rows):
    """det times invJT applied to each of the first ``order`` (1 or 2)
    reference-gradient axes of ``ref``: the per-triangle values
    (nt,) + ref.shape of the form on the physical triangles of ``rows``,
    with physical axes in place of the reference ones.  Affine maps make
    every local matrix this one product."""
    invJT = geom.invJT[rows]
    G = geom.det[rows, None, None] * invJT
    if order == 2:
        G = G[:, :, None, :, None] * invJT[:, None, :, None, :]
    m = 2 ** order
    return (G.reshape(-1, m) @ ref.reshape(m, -1)).reshape((-1,) + ref.shape)


def _gradient_products(space, rows):
    """(nt, 2, 2, nloc, nloc): det (d_a phi_l, d_b phi_m) per triangle of
    ``rows``."""
    pts, w = quadrature.triangle_rule(_QDEG[space.family])
    g = _ref_gradients(space.family, pts)
    # K[i, j, l, m] = sum_q w_q d_i phi_l d_j phi_m on the reference triangle
    ref = (g * w)[:, None] @ np.swapaxes(g, 1, 2)[None]
    return _push_forward(space.geom, ref, 2, rows)


def scalar_mass(space):
    pts, w = quadrature.triangle_rule(_QDEG[space.family])
    vals = space.values(pts)
    loc = space.geom.det[:, None, None] * ((vals * w) @ vals.T)
    return _scatter(space.cell_dofs, space.cell_dofs, loc,
                    (space.ndof, space.ndof))


def scalar_stiffness(space):
    def block(rows):
        cross = _gradient_products(space, rows)
        return cross[:, 0, 0] + cross[:, 1, 1],

    loc, = blockwise(len(space.tris), block)
    return _scatter(space.cell_dofs, space.cell_dofs, loc,
                    (space.ndof, space.ndof))


def pressure_integral(space):
    """Vector of integrals of the pressure basis functions."""
    pts, w = quadrature.triangle_rule(_QDEG[space.family])
    loc = np.outer(space.geom.det, space.values(pts) @ w)
    out = np.zeros(space.ndof)
    np.add.at(out, space.cell_dofs.ravel(), loc.ravel())
    return out


def _interface_values(space, npts):
    """A scalar space's basis on the interface, edges left to right.

    Returns (sig, rows, s, w, vals): the mesh's interface edge map, the
    row of each edge's owning triangle in ``space.tris``, the segment rule
    (parameter s from the left endpoint, weights w) and the local basis
    values (ns, nloc, nq) at its points.
    """
    sig = space.mesh.interface_edges()
    s, w = quadrature.segment_rule(npts)
    ref = sig.ref_points(space.region, s)
    ns, nq = ref.shape[:2]
    vals = ref_basis(space.family, ref.reshape(-1, 2))[0]
    return (sig, sig.row[:, space.region], s, w,
            vals.reshape(-1, ns, nq).transpose(1, 0, 2))


def stokes_velocity_matrix(vel, params):
    """Velocity form 2 nu (eps(u), eps(v)) plus the interface friction
    term kappa <u_x, v_x> on y = 1/2, over all (unconstrained) DOFs."""
    sc = vel.scalar

    def block(rows):
        cross = _gradient_products(sc, rows)
        kgrad = cross[:, 0, 0] + cross[:, 1, 1]
        # entry (2l+a, 2m+b) of the viscous block:
        #   nu * [ delta_ab (grad phi_l, grad phi_m) + (d_b phi_l, d_a phi_m) ]
        loc = params.nu * cross.transpose(0, 3, 2, 4, 1) + params.nu \
            * kgrad[:, :, None, :, None] * np.eye(2)[:, None, :]
        return loc.reshape(len(loc), vel.nloc, vel.nloc),

    locA, = blockwise(len(sc.tris), block)
    A = _scatter(vel.cell_dofs, vel.cell_dofs, locA, (vel.ndof, vel.ndof))

    # interface friction: the tangential trace is just the x component here
    sig, rows, _, sw, bv = _interface_values(sc, 4)
    loc = (params.kappa * sig.length)[:, None, None] \
        * ((bv * sw) @ np.swapaxes(bv, 1, 2))
    dofs = 2 * sc.cell_dofs[rows]
    return A + _scatter(dofs, dofs, loc, (vel.ndof, vel.ndof))


def divergence_matrix(vel, pres):
    """B[q, v] = (div v, q) over the velocity subdomain."""
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(max(_QDEG[sc.family],
                                          _QDEG[pres.family]))
    # D[i, j, m] = sum_q w_q psi_j d_i phi_m on the reference triangle
    ref = (pres.values(pts) * w) @ np.swapaxes(
        _ref_gradients(sc.family, pts), 1, 2)

    def block(rows):
        # entry (j, 2m+b): (d_b phi_m, psi_j)
        loc = _push_forward(sc.geom, ref, 1, rows).transpose(0, 2, 3, 1)
        return loc.reshape(len(loc), pres.nloc, vel.nloc),

    locB, = blockwise(len(sc.tris), block)
    return _scatter(pres.cell_dofs, vel.cell_dofs, locB,
                    (pres.ndof, vel.ndof))


def _flux_forms(flux, tau, qdeg, pres=None):
    """Flux mass tau (u, v) and div-div (div u, div v) blocks, and with a
    pressure space the divergence coupling (div u, q), by batched products
    over the triangles of one block at a time: the flux basis is built on
    each physical triangle, so there is no reference tensor."""
    pts, w = quadrature.triangle_rule(qdeg)
    if pres is not None:
        pw = pres.values(pts) * w

    def block(rows):
        vals, divs = flux.tabulate(pts, rows)
        det = flux.geom.det[rows, None, None]
        nt = len(divs)
        v = vals.reshape(nt, flux.nloc, -1)
        wv = (vals * w[:, None]).reshape(nt, flux.nloc, -1)
        dt = np.swapaxes(divs, 1, 2)
        loc = (tau * det * (wv @ np.swapaxes(v, 1, 2)),
               det * ((divs * w) @ dt))
        return loc if pres is None else loc + (det * (pw @ dt),)

    loc = blockwise(len(flux.tris), block)
    square = (flux.ndof, flux.ndof)
    forms = [_scatter(flux.cell_dofs, flux.cell_dofs, a, square)
             for a in loc[:2]]
    if pres is not None:
        forms.append(_scatter(pres.cell_dofs, flux.cell_dofs, loc[2],
                              (pres.ndof, flux.ndof)))
    return tuple(forms)


def flux_operator_matrices(flux, tau):
    """Weighted flux mass tau (u, v) and the div-div form (div u, div v)."""
    return _flux_forms(flux, tau, _QDEG[flux.family])


def assemble_darcy(flux, dpres, params):
    """Darcy blocks: weighted flux mass, divergence coupling, div-div form,
    and the pressure mass matrix."""
    A, D, B = _flux_forms(flux, params.tau,
                          max(_QDEG[flux.family], _QDEG[dpres.family]), dpres)
    return A, B, D, scalar_mass(dpres)


def assemble_interface(vel, trace):
    """Mixed trace matrix and the L2 trace projection.

    Returns (T, R): T[mu, v] = <v.n, mu> over the interface, R = Q^{-1} T
    (Q the trace-space mass) the matrix of the projection of Stokes
    normal traces onto the Darcy trace space, without its roundoff
    entries.
    """
    sc = vel.scalar
    sig, rows, s, sw, bv = _interface_values(sc, 4)
    # v.n = -v_y for the fixed interface normal (0, -1); trace basis
    # functions (1 - s, s) from the left endpoint
    mu = np.stack([1 - s, s])
    loc = -sig.length[:, None, None] * ((mu * sw) @ np.swapaxes(bv, 1, 2))
    k = 2 * np.arange(len(rows))
    T = _scatter(np.column_stack([k, k + 1]), 2 * sc.cell_dofs[rows] + 1,
                 loc, (trace.ndim, vel.ndof))
    Qinv = sp.block_diag(np.linalg.inv(trace.mass_blocks()), format="csr")
    R = drop_roundoff(Qinv @ T)
    return T, R


def stokes_load(vel, case, params):
    """Body-force load plus the interface stress correction."""
    if (case.nu, case.kappa, case.tau) != (params.nu, params.kappa, params.tau):
        raise InvalidCaseError("manufactured data assumes unit parameters")
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(LOAD_QDEG)
    vw = sc.values(pts) * w

    def block(rows):
        f = case.stokes(sc.geom.map_points(pts, rows).reshape(-1, 2)).f
        return sc.geom.det[rows, None, None] \
            * (vw @ f.reshape(-1, len(pts), 2)),

    loc, = blockwise(len(sc.tris), block)
    F = np.zeros(vel.ndof)
    np.add.at(F, 2 * sc.cell_dofs[:, :, None] + np.arange(2), loc)

    sig, rows, s, sw, bv = _interface_values(sc, 6)
    x = sig.points(s)[..., 0]
    g = case.g_sigma(x.ravel()).reshape(x.shape + (2,))
    loc = sig.length[:, None, None] * ((bv * sw) @ g)
    np.add.at(F, 2 * sc.cell_dofs[rows][:, :, None] + np.arange(2), loc)
    return F


def darcy_load(dpres, case):
    """Source load (f_D, q); rejects incompatible sources."""
    pts, w = quadrature.triangle_rule(LOAD_QDEG)
    geom, vwT = dpres.geom, (dpres.values(pts) * w).T

    def block(rows):
        f = case.darcy(geom.map_points(pts, rows).reshape(-1, 2)).f
        return (geom.det[rows, None] * f.reshape(-1, len(pts))) @ vwT,

    loc, = blockwise(len(dpres.tris), block)
    G = np.zeros(dpres.ndof)
    np.add.at(G, dpres.cell_dofs, loc)
    check_compatible(G)
    return G


def check_compatible(G):
    """Raise InvalidCaseError unless the porous source load G, on a
    discontinuous pressure basis that sums to one, integrates to zero:
    |sum G| <= COMPAT_TOL max(max |G|, 1)."""
    total = np.sum(G)
    if abs(total) > COMPAT_TOL * max(np.abs(G).max(initial=0.0), 1.0):
        raise InvalidCaseError("source must integrate to zero over the "
                               "porous region, got %.3e" % total)
