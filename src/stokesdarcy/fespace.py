"""Discrete spaces and degree-of-freedom maps.

Scalar nodal families (p1, p2, p1b = linears plus cubic bubble, p0dc, p1dc)
are defined on the reference triangle and mapped affinely.  The H(div)
families (bdm1, rt1) are built directly on each physical triangle as the
basis dual to globally oriented edge moments (plus interior moments for
rt1), which makes normal traces single-valued across edges without any
separate sign bookkeeping.

Edge moments are normalized by edge length and interior moments by
triangle area, so degree-of-freedom values scale like field values.
"""

import numpy as np
import scipy.sparse as sp

from . import quadrature
from .mesh import GAMMA_D, SIGMA

REGION_S = 0
REGION_D = 1


def ref_nodes(family):
    """Reference coordinates of the nodal points."""
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mid = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])  # midpoint of edge k
    if family in ("p1", "p1dc"):
        return v
    if family == "p2":
        return np.vstack([v, mid])
    if family == "p1b":
        return np.vstack([v, [[1 / 3, 1 / 3]]])
    if family == "p0dc":
        return np.array([[1 / 3, 1 / 3]])
    raise ValueError("unknown nodal family %r" % (family,))


def ref_basis(family, pts):
    """Values and reference gradients of the local shape functions.

    Returns (vals, grads) with shapes (nloc, npts) and (nloc, npts, 2).
    """
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    lam = np.stack([1.0 - x - y, x, y])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    if family in ("p1", "p1dc"):
        grads = np.broadcast_to(dlam[:, None, :], (3, len(x), 2)).copy()
        return lam.copy(), grads
    if family == "p0dc":
        return np.ones((1, len(x))), np.zeros((1, len(x), 2))
    if family == "p2":
        vals = np.empty((6, len(x)))
        grads = np.empty((6, len(x), 2))
        for i in range(3):
            vals[i] = lam[i] * (2 * lam[i] - 1)
            grads[i] = (4 * lam[i] - 1)[:, None] * dlam[i]
        for k in range(3):
            a, b = (k + 1) % 3, (k + 2) % 3
            vals[3 + k] = 4 * lam[a] * lam[b]
            grads[3 + k] = 4 * (lam[a][:, None] * dlam[b] + lam[b][:, None] * dlam[a])
        return vals, grads
    if family == "p1b":
        vals = np.empty((4, len(x)))
        grads = np.empty((4, len(x), 2))
        vals[:3] = lam
        grads[:3] = np.broadcast_to(dlam[:, None, :], (3, len(x), 2))
        vals[3] = 27 * lam[0] * lam[1] * lam[2]
        grads[3] = 27 * (lam[1] * lam[2])[:, None] * dlam[0] \
            + 27 * (lam[0] * lam[2])[:, None] * dlam[1] \
            + 27 * (lam[0] * lam[1])[:, None] * dlam[2]
        return vals, grads
    raise ValueError("unknown nodal family %r" % (family,))


def _region_entities(mesh, region):
    tris = mesh.region_triangles(region)
    vids = np.unique(mesh.triangles[tris])
    eids = np.unique(mesh.tri_edges[tris])
    return tris, vids, eids


def _on_open_sigma(coords):
    x, y = coords[:, 0], coords[:, 1]
    return (np.abs(y - 0.5) < 1e-12) & (x > 1e-12) & (x < 1 - 1e-12)


def _on_subdomain_boundary(coords, region):
    x, y = coords[:, 0], coords[:, 1]
    onv = (np.abs(x) < 1e-12) | (np.abs(x - 1) < 1e-12)
    if region == REGION_S:
        return onv | (np.abs(y - 1) < 1e-12) | (np.abs(y - 0.5) < 1e-12)
    return onv | (np.abs(y) < 1e-12) | (np.abs(y - 0.5) < 1e-12)


class Space:
    """Scalar nodal space on one subdomain of a CoupledMesh.

    Attributes
    ----------
    ndof : int
    cell_dofs : (nt, nloc) int array, rows follow ``self.tris``
    nodes : (ndof, 2) nodal coordinates
    on_gamma : bool mask, nodes on the outer subdomain boundary (the closure
        of Gamma, i.e. everything except the open interface)
    on_sigma : bool mask, nodes on the open interface
    on_boundary : bool mask, union of the two
    """

    def __init__(self, mesh, family, region):
        self.mesh = mesh
        self.family = family
        self.region = region
        self.tris, vids, _ = _region_entities(mesh, region)
        nt = len(self.tris)
        tv = mesh.triangles[self.tris]

        vmap = -np.ones(mesh.num_vertices, dtype=int)
        vmap[vids] = np.arange(len(vids))
        if family in ("p1", "p1b", "p2"):
            cell = vmap[tv]
            nodes = [mesh.vertices[vids]]
            ndof = len(vids)
            if family == "p2":
                emap = -np.ones(len(mesh.edges), dtype=int)
                eids = np.unique(mesh.tri_edges[self.tris])
                emap[eids] = np.arange(len(eids))
                cell = np.hstack([cell, ndof + emap[mesh.tri_edges[self.tris]]])
                nodes.append(0.5 * (mesh.vertices[mesh.edges[eids, 0]] +
                                    mesh.vertices[mesh.edges[eids, 1]]))
                ndof += len(eids)
            elif family == "p1b":
                cell = np.hstack([cell, ndof + np.arange(nt)[:, None]])
                nodes.append(mesh.vertices[tv].mean(axis=1))
                ndof += nt
            self.cell_dofs = cell
            self.nodes = np.vstack(nodes)
            self.ndof = ndof
        elif family == "p1dc":
            self.cell_dofs = np.arange(3 * nt).reshape(nt, 3)
            self.nodes = mesh.vertices[tv].reshape(-1, 2)
            self.ndof = 3 * nt
        elif family == "p0dc":
            self.cell_dofs = np.arange(nt).reshape(nt, 1)
            self.nodes = mesh.vertices[tv].mean(axis=1)
            self.ndof = nt
        else:
            raise ValueError("unknown nodal family %r" % (family,))

        if family in ("p0dc", "p1dc"):
            # discontinuous spaces carry no essential constraints here
            self.on_sigma = np.zeros(self.ndof, dtype=bool)
            self.on_boundary = np.zeros(self.ndof, dtype=bool)
        else:
            self.on_sigma = _on_open_sigma(self.nodes)
            self.on_boundary = _on_subdomain_boundary(self.nodes, region)
        self.on_gamma = self.on_boundary & ~self.on_sigma
        self.nloc = self.cell_dofs.shape[1]

    def geometry(self):
        """Affine data per triangle: (J, detJ, invJT, origin)."""
        p = self.mesh.vertices[self.mesh.triangles[self.tris]]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.empty_like(J)
        invJT[:, 0, 0] = J[:, 1, 1]
        invJT[:, 0, 1] = -J[:, 1, 0]
        invJT[:, 1, 0] = -J[:, 0, 1]
        invJT[:, 1, 1] = J[:, 0, 0]
        invJT /= det[:, None, None]
        return J, det, invJT, p[:, 0]

    def tabulate(self, ref_pts):
        """Basis values and physical gradients at mapped quadrature points.

        Returns (vals, grads, detJ): vals (nloc, np), grads (nt, nloc, np, 2).
        """
        vals, rgrads = ref_basis(self.family, ref_pts)
        _, det, invJT, _ = self.geometry()
        grads = np.einsum("tab,lpb->tlpa", invJT, rgrads)
        return vals, grads, det

    def interpolate(self, f):
        """Nodal interpolation of a callable f(x) -> values.

        For the bubble-enriched family the bubble coefficient is the
        deviation from the linear part at the barycenter (the hats are
        interpolatory at the vertices, the bubble at the barycenter).
        """
        vals = np.asarray(f(self.nodes), dtype=float)
        if self.family == "p1b":
            bub = self.cell_dofs[:, 3]
            vals[bub] = vals[bub] - vals[self.cell_dofs[:, :3]].mean(axis=1)
        return vals


class VectorSpace:
    """Two-component version of a scalar nodal space, interleaved layout."""

    def __init__(self, scalar):
        self.scalar = scalar
        self.mesh = scalar.mesh
        self.region = scalar.region
        self.tris = scalar.tris
        self.ndof = 2 * scalar.ndof
        base = scalar.cell_dofs
        nt, nloc = base.shape
        cell = np.empty((nt, 2 * nloc), dtype=int)
        cell[:, 0::2] = 2 * base
        cell[:, 1::2] = 2 * base + 1
        self.cell_dofs = cell
        self.nloc = 2 * nloc
        self.on_sigma = np.repeat(scalar.on_sigma, 2)
        self.on_boundary = np.repeat(scalar.on_boundary, 2)
        self.on_gamma = np.repeat(scalar.on_gamma, 2)

    def interpolate(self, f):
        vals = np.asarray(f(self.scalar.nodes), dtype=float)
        if self.scalar.family == "p1b":
            bub = self.scalar.cell_dofs[:, 3]
            vals[bub] = vals[bub] - vals[self.scalar.cell_dofs[:, :3]].mean(axis=1)
        return vals.reshape(-1)


_BDM_NMONO = 6
_RT_NMONO = 8


def _monomials(kind, X, Y):
    """Vector monomials in local (shifted, scaled) coordinates.

    Returns vals (nmono, npts, 2) and divergences (nmono, npts) with the
    divergence taken in the local coordinates (caller rescales by 1/h).
    """
    npts = len(X)
    one, zero = np.ones(npts), np.zeros(npts)
    vals = [np.stack([one, zero], -1), np.stack([X, zero], -1),
            np.stack([Y, zero], -1), np.stack([zero, one], -1),
            np.stack([zero, X], -1), np.stack([zero, Y], -1)]
    divs = [zero, one, zero, zero, zero, one]
    if kind == "rt1":
        vals += [np.stack([X * X, X * Y], -1), np.stack([X * Y, Y * Y], -1)]
        divs += [3 * X, 3 * Y]
    return np.stack(vals), np.stack(divs)


class FluxSpace:
    """H(div)-conforming flux space (bdm1 or rt1) on the Darcy subdomain.

    Degrees of freedom: for every edge, two moments of the normal component
    against the linear functions valued 1 at each endpoint (endpoints in
    ascending global-index order, the edge normal obtained by rotating the
    ascending tangent clockwise); for rt1 additionally two interior moments
    against the coordinate unit vectors.
    """

    def __init__(self, mesh, family, region=REGION_D):
        if family not in ("bdm1", "rt1"):
            raise ValueError("unknown flux family %r" % (family,))
        self.mesh = mesh
        self.family = family
        self.region = region
        self.tris, _, eids = _region_entities(mesh, region)
        self.edge_ids = eids
        emap = -np.ones(len(mesh.edges), dtype=int)
        emap[eids] = np.arange(len(eids))
        self.edge_index = emap
        nt, ne = len(self.tris), len(eids)
        self.nloc = 6 if family == "bdm1" else 8
        self.ndof = 2 * ne + (2 * nt if family == "rt1" else 0)

        cell = np.empty((nt, self.nloc), dtype=int)
        loc_edges = emap[mesh.tri_edges[self.tris]]
        for k in range(3):
            cell[:, 2 * k] = 2 * loc_edges[:, k]
            cell[:, 2 * k + 1] = 2 * loc_edges[:, k] + 1
        if family == "rt1":
            cell[:, 6] = 2 * ne + 2 * np.arange(nt)
            cell[:, 7] = 2 * ne + 2 * np.arange(nt) + 1
        self.cell_dofs = cell

        tag = mesh.edge_tag[eids]
        edof = np.repeat(tag, 2)
        self.on_gamma = np.zeros(self.ndof, dtype=bool)
        self.on_sigma = np.zeros(self.ndof, dtype=bool)
        self.on_gamma[:2 * ne] = edof == GAMMA_D
        self.on_sigma[:2 * ne] = edof == SIGMA
        self.on_boundary = self.on_gamma | self.on_sigma
        self.edge_sign = mesh.edge_signs()[self.tris]
        self._build_local_bases()

    def _edge_geometry(self, eids):
        a = self.mesh.vertices[self.mesh.edges[eids, 0]]
        b = self.mesh.vertices[self.mesh.edges[eids, 1]]
        length = np.linalg.norm(b - a, axis=1)
        tang = (b - a) / length[:, None]
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        return a, b, length, tang, normal

    def _build_local_bases(self):
        mesh = self.mesh
        nt = len(self.tris)
        p = mesh.vertices[mesh.triangles[self.tris]]
        self.centers = p.mean(axis=1)
        self.hscale = np.sqrt(np.abs(
            0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                   - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))))
        sq, wq = quadrature.segment_rule(3)

        M = np.zeros((nt, self.nloc, self.nloc))
        tri_eids = self.mesh.tri_edges[self.tris]
        for k in range(3):
            ek = tri_eids[:, k]
            a, b, length, _, normal = self._edge_geometry(ek)
            for s, w in zip(sq, wq):
                pts = a + s * (b - a)
                X = (pts[:, 0] - self.centers[:, 0]) / self.hscale
                Y = (pts[:, 1] - self.centers[:, 1]) / self.hscale
                mono, _ = _monomials(self.family, X, Y)  # (nm, nt, 2)
                mn = np.einsum("mtc,tc->mt", mono, normal)
                # normalized moments: (1/|e|) int (u.n) q_i with q_1 at the
                # lower-index endpoint; ds = |e| d s cancels the 1/|e|
                M[:, 2 * k, :] += (w * (1 - s)) * mn.T
                M[:, 2 * k + 1, :] += (w * s) * mn.T
        if self.family == "rt1":
            tq, twq = quadrature.triangle_rule(3)
            J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
            for (rx, ry), w in zip(tq, twq):
                pts = p[:, 0] + J[:, :, 0] * rx + J[:, :, 1] * ry
                X = (pts[:, 0] - self.centers[:, 0]) / self.hscale
                Y = (pts[:, 1] - self.centers[:, 1]) / self.hscale
                mono, _ = _monomials(self.family, X, Y)
                # (1/|T|) int u.e_c; weights of the reference rule sum to 1/2
                M[:, 6, :] += 2 * w * mono[:, :, 0].T
                M[:, 7, :] += 2 * w * mono[:, :, 1].T
        self.coeff = np.linalg.inv(M)  # (nt, nmono, ndof_loc) acting on duals

    def tabulate(self, ref_pts):
        """Physical basis values and divergences at mapped points.

        Returns vals (nt, nloc, np, 2), divs (nt, nloc, np), detJ (nt,).
        """
        mesh = self.mesh
        p = mesh.vertices[mesh.triangles[self.tris]]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        ref_pts = np.asarray(ref_pts)
        pts = p[:, None, 0, :] + np.einsum("tab,pb->tpa", J, ref_pts)
        X = (pts[..., 0] - self.centers[:, None, 0]) / self.hscale[:, None]
        Y = (pts[..., 1] - self.centers[:, None, 1]) / self.hscale[:, None]
        nm = _BDM_NMONO if self.family == "bdm1" else _RT_NMONO
        nt, npts = X.shape
        mono = np.empty((nt, nm, npts, 2))
        mdiv = np.empty((nt, nm, npts))
        for t in range(0, nt, 4096):
            sl = slice(t, min(t + 4096, nt))
            mv, md = _monomials(self.family, X[sl].ravel(), Y[sl].ravel())
            span = sl.stop - sl.start
            mono[sl] = mv.reshape(nm, span, npts, 2).transpose(1, 0, 2, 3)
            mdiv[sl] = md.reshape(nm, span, npts).transpose(1, 0, 2)
        vals = np.einsum("tml,tmpc->tlpc", self.coeff, mono)
        divs = np.einsum("tml,tmp->tlp", self.coeff, mdiv) / self.hscale[:, None, None]
        return vals, divs, det

    def evaluate_at(self, coeffs, tri_local, phys_pts):
        """Field values at physical points, one owning triangle per point.

        tri_local indexes into ``self.tris``; points must lie in (or on the
        boundary of) their triangle.
        """
        tri_local = np.asarray(tri_local)
        phys_pts = np.asarray(phys_pts, dtype=float)
        X = (phys_pts[:, 0] - self.centers[tri_local, 0]) / self.hscale[tri_local]
        Y = (phys_pts[:, 1] - self.centers[tri_local, 1]) / self.hscale[tri_local]
        mono, _ = _monomials(self.family, X, Y)  # (nm, npts, 2)
        local = np.einsum("pml,mpc->plc", self.coeff[tri_local], mono)
        c = coeffs[self.cell_dofs[tri_local]]
        return np.einsum("pl,plc->pc", c, local)

    def canonical_interpolation(self, f):
        """Coefficients of the canonical interpolant of a smooth field.

        Edge moments of the normal component against linears are matched
        exactly (5-point Gauss); rt1 also matches the interior moments.
        """
        coeffs = np.zeros(self.ndof)
        sq, wq = quadrature.segment_rule(5)
        a, b, length, _, normal = self._edge_geometry(self.edge_ids)
        m1 = np.zeros(len(self.edge_ids))
        m2 = np.zeros(len(self.edge_ids))
        for s, w in zip(sq, wq):
            pts = a + s * (b - a)
            un = np.einsum("ec,ec->e", np.asarray(f(pts), dtype=float), normal)
            m1 += w * (1 - s) * un
            m2 += w * s * un
        coeffs[0:2 * len(self.edge_ids):2] = m1
        coeffs[1:2 * len(self.edge_ids):2] = m2
        if self.family == "rt1":
            tq, twq = quadrature.triangle_rule(6)
            p = self.mesh.vertices[self.mesh.triangles[self.tris]]
            J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
            acc = np.zeros((len(self.tris), 2))
            for (rx, ry), w in zip(tq, twq):
                pts = p[:, 0] + J[:, :, 0] * rx + J[:, :, 1] * ry
                acc += 2 * w * np.asarray(f(pts), dtype=float)
            base = 2 * len(self.edge_ids)
            coeffs[base::2] = acc[:, 0]
            coeffs[base + 1::2] = acc[:, 1]
        return coeffs


class TraceSpace:
    """Normal-trace space on the interface: discontinuous linears per edge.

    Coefficients are the values of u.n (n the fixed interface normal,
    pointing into the Darcy half) at the left and right endpoint of each
    interface edge, edges ordered left to right: entries (2k, 2k+1).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.sigma = mesh.sigma_edges
        self.nedges = len(self.sigma)
        self.ndim = 2 * self.nedges
        a = mesh.vertices[mesh.edges[self.sigma, 0]]
        b = mesh.vertices[mesh.edges[self.sigma, 1]]
        self.lengths = np.linalg.norm(b - a, axis=1)
        # +1 when ascending-index orientation already gives normal (0,-1)
        self.sign = np.where(a[:, 0] < b[:, 0], 1.0, -1.0)
        self.left_x = np.minimum(a[:, 0], b[:, 0])

    def mass_matrix(self):
        blocks = [ln / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
                  for ln in self.lengths]
        return sp.block_diag(blocks, format="csr")

    def integral(self, coeffs):
        c = coeffs.reshape(-1, 2)
        return float(np.sum(0.5 * self.lengths * (c[:, 0] + c[:, 1])))


def sigma_flux_maps(flux, trace):
    """Lift and trace matrices between interface values and flux DOFs.

    Returns (lift, ntrace): ``lift`` (ndof x 2*nedges) sets the two moment
    DOFs of each interface edge so the normal trace (against the fixed
    interface normal) equals the given left/right endpoint values;
    ``ntrace`` (2*nedges x ndof) recovers those values, ntrace @ lift = I.
    """
    mesh = flux.mesh
    rows, cols, lvals, tvals = [], [], [], []
    mloc = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    minv = np.linalg.inv(mloc)
    for k, e in enumerate(trace.sigma):
        le = flux.edge_index[e]
        d0, d1 = 2 * le, 2 * le + 1
        s = trace.sign[k]
        # global dof order is (endpoint g0, endpoint g1); map to left/right
        perm = np.eye(2) if s > 0 else np.array([[0.0, 1.0], [1.0, 0.0]])
        L = s * (mloc @ perm)      # dofs = L @ (vL, vR)
        T = s * (perm @ minv)      # (vL, vR) = T @ dofs
        for i, d in enumerate((d0, d1)):
            for j in range(2):
                rows.append(d)
                cols.append(2 * k + j)
                lvals.append(L[i, j])
                tvals.append(T[j, i])
    lift = sp.coo_matrix((lvals, (rows, cols)),
                         shape=(flux.ndof, trace.ndim)).tocsr()
    ntrace = sp.coo_matrix((tvals, (cols, rows)),
                           shape=(trace.ndim, flux.ndof)).tocsr()
    return lift, ntrace


VELOCITY_FAMILIES = {"mini": "p1b", "p2isop1": "p1", "taylorhood": "p2"}
SCALAR_FAMILIES = ("p1", "p2", "p1b", "p0dc", "p1dc")
FLUX_FAMILIES = ("bdm1", "rt1")


def build_space(mesh, family, region):
    """Factory with family/subdomain validation.

    Velocity families (mini, p2isop1, taylorhood) build vector spaces and
    live on the free-flow half; flux families on the porous half; scalar
    families anywhere.
    """
    family = family.lower()
    if family in VELOCITY_FAMILIES:
        if region != REGION_S:
            raise ValueError("velocity family %r lives on the free-flow "
                             "subdomain" % (family,))
        return VectorSpace(Space(mesh, VELOCITY_FAMILIES[family], region))
    if family in FLUX_FAMILIES:
        if region != REGION_D:
            raise ValueError("flux family %r lives on the porous "
                             "subdomain" % (family,))
        return FluxSpace(mesh, family, region)
    if family in SCALAR_FAMILIES:
        return Space(mesh, family, region)
    raise ValueError("unknown family %r" % (family,))


def locate_triangles(mesh, pts, region=None):
    """Triangle index containing each point, for structured meshes."""
    n = mesh.n
    x = np.clip(pts[:, 0], 0.0, 1.0)
    y = np.clip(pts[:, 1], 0.0, 1.0)
    i = np.minimum((x * n).astype(int), n - 1)
    j = np.minimum((y * n).astype(int), n - 1)
    if region == REGION_S:
        j = np.maximum(j, n // 2)
    elif region == REGION_D:
        j = np.minimum(j, n // 2 - 1)
    fx = x * n - i
    fy = y * n - j
    lower = fx >= fy - 1e-12
    return 2 * (j * n + i) + np.where(lower, 0, 1)


def nodal_prolongation(coarse, fine):
    """Sparse interpolation matrix from a coarse nodal space into a fine one.

    Both spaces must be continuous nodal families on nested structured
    meshes of the same subdomain.
    """
    tri_of = locate_triangles(coarse.mesh, fine.nodes, coarse.region)
    gmap = -np.ones(coarse.mesh.num_triangles, dtype=int)
    gmap[coarse.tris] = np.arange(len(coarse.tris))
    loc = gmap[tri_of]
    if np.any(loc < 0):
        raise ValueError("fine node outside the coarse subdomain")
    p = coarse.mesh.vertices[coarse.mesh.triangles[coarse.tris]]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    invJ = np.linalg.inv(J)
    ref = np.einsum("nab,nb->na", invJ[loc], fine.nodes - p[loc, 0])
    bvals = ref_basis(coarse.family, ref)[0].T  # (fine.ndof, nloc)
    keep = np.abs(bvals) > 1e-13
    rows = np.nonzero(keep)[0]
    cols = coarse.cell_dofs[loc][keep]
    return sp.coo_matrix((bvals[keep], (rows, cols)),
                         shape=(fine.ndof, coarse.ndof)).tocsr()


def vector_expand(P):
    """Scalar-node prolongation -> interleaved vector prolongation."""
    return sp.kron(P, sp.eye(2), format="csr")
