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
from .mesh import REF_VERTICES, row_blocks, segment_points

REGION_S = 0
REGION_D = 1

# An assembled entry |a_ij| <= DROP_RTOL * max(max_k |a_ik|, max_k |a_kj|)
# is an exact zero or cancellation roundoff of its form and is not stored.
# The scale depends on rows and columns only: symmetric for a symmetric
# form, and free of the form's physical coefficients.
DROP_RTOL = 2.0 ** -40


def csr_from_triplets(rows, cols, vals, shape):
    """CSR sum of the triplets (rows, cols, vals), broadcast against each
    other, duplicates added, without the entries that DROP_RTOL marks as
    roundoff.  Every kept entry is bitwise the plain coo -> csr sum."""
    rows, cols, vals = (a.ravel() for a in np.broadcast_arrays(rows, cols,
                                                               vals))
    return drop_roundoff(sp.coo_matrix((vals, (rows, cols)), shape=shape))


def drop_roundoff(A):
    """A copy of the sparse matrix A, as CSR, without the entries that
    DROP_RTOL marks as roundoff.  Only entries at or below DROP_RTOL of
    the largest magnitude of A can qualify; only those are tested."""
    A = A.tocsr(copy=True)
    mag = np.abs(A.data)
    small = np.flatnonzero(mag <= DROP_RTOL * mag.max(initial=0.0))
    if not small.size:
        return A
    rowmax = np.zeros(A.shape[0])
    full = np.diff(A.indptr) > 0
    rowmax[full] = np.maximum.reduceat(mag, A.indptr[:-1][full])
    colmax = np.zeros(A.shape[1])
    np.maximum.at(colmax, A.indices, mag)
    rows = np.searchsorted(A.indptr, small, side="right") - 1
    scale = np.maximum(rowmax[rows], colmax[A.indices[small]])
    A.data[small[mag[small] <= DROP_RTOL * scale]] = 0.0
    A.eliminate_zeros()
    return A


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
    """The region's triangles, and the sorted vertices and edges they
    use."""
    tris = mesh.region_triangles(region)
    vused = np.zeros(mesh.num_vertices, dtype=bool)
    vused[mesh.triangles[tris]] = True
    eused = np.zeros(len(mesh.edges), dtype=bool)
    eused[mesh.tri_edges[tris]] = True
    return tris, np.flatnonzero(vused), np.flatnonzero(eused)


def _boundary_masks(points, region):
    """Masks (on_boundary, on_gamma) of the DOFs placed at `points` in
    `region`: on the subdomain's whole boundary, and on all of it but the
    open interface (the closure of Gamma)."""
    x, y = points[:, 0], points[:, 1]
    on_midline = np.abs(y - 0.5) < 1e-12
    on_sigma = on_midline & (x > 1e-12) & (x < 1 - 1e-12)
    outer_y = 1.0 if region == REGION_S else 0.0
    on_boundary = (np.abs(x) < 1e-12) | (np.abs(x - 1) < 1e-12) \
        | (np.abs(y - outer_y) < 1e-12) | on_midline
    return on_boundary, on_boundary & ~on_sigma


class Space:
    """Scalar nodal space on one subdomain of a CoupledMesh.

    Attributes
    ----------
    geom : the mesh's AffineGeometry of the subdomain, rows follow
        ``self.tris``
    ndof : int
    cell_dofs : (nt, nloc) int array, rows follow ``self.tris``
    nodes : (ndof, 2) nodal coordinates
    on_boundary : bool mask, nodes on the whole subdomain boundary
    on_gamma : bool mask, nodes on the outer subdomain boundary (the closure
        of Gamma, i.e. everything except the open interface, whose nodes
        are on_boundary & ~on_gamma)
    """

    def __init__(self, mesh, family, region):
        self.mesh = mesh
        self.family = family
        self.region = region
        self.tris, vids, eids = _region_entities(mesh, region)
        self.geom = mesh.geometry(region)
        nt = len(self.tris)
        tv = mesh.triangles[self.tris]
        corners = self.geom.corners

        vmap = -np.ones(mesh.num_vertices, dtype=int)
        vmap[vids] = np.arange(len(vids))
        if family in ("p1", "p1b", "p2"):
            cell = vmap[tv]
            nodes = [mesh.vertices[vids]]
            ndof = len(vids)
            if family == "p2":
                emap = -np.ones(len(mesh.edges), dtype=int)
                emap[eids] = np.arange(len(eids))
                cell = np.hstack([cell, ndof + emap[mesh.tri_edges[self.tris]]])
                nodes.append(0.5 * (mesh.vertices[mesh.edges[eids, 0]] +
                                    mesh.vertices[mesh.edges[eids, 1]]))
                ndof += len(eids)
            elif family == "p1b":
                cell = np.hstack([cell, ndof + np.arange(nt)[:, None]])
                nodes.append(corners.mean(axis=1))
                ndof += nt
            self.cell_dofs = cell
            self.nodes = np.vstack(nodes)
            self.ndof = ndof
        elif family == "p1dc":
            self.cell_dofs = np.arange(3 * nt).reshape(nt, 3)
            self.nodes = corners.reshape(-1, 2)
            self.ndof = 3 * nt
        elif family == "p0dc":
            self.cell_dofs = np.arange(nt).reshape(nt, 1)
            self.nodes = corners.mean(axis=1)
            self.ndof = nt
        else:
            raise ValueError("unknown nodal family %r" % (family,))

        if family in ("p0dc", "p1dc"):
            # discontinuous spaces carry no essential constraints here
            self.on_boundary = self.on_gamma = np.zeros(self.ndof, dtype=bool)
        else:
            self.on_boundary, self.on_gamma = _boundary_masks(self.nodes,
                                                              region)
        self.nloc = self.cell_dofs.shape[1]

    def values(self, ref_pts):
        """Basis values (nloc, np) at reference points; an affine map
        leaves them unchanged."""
        return ref_basis(self.family, ref_pts)[0]

    def gradients(self, ref_pts, rows=slice(None)):
        """Physical basis gradients (nt, nloc, np, 2) at the mapped
        reference points, on the triangles of ``rows`` (all by
        default)."""
        g = ref_basis(self.family, ref_pts)[1][..., None, :]
        T = self.geom.invJT[rows, None, None]
        return T[..., 0] * g[..., 0] + T[..., 1] * g[..., 1]

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
    """Two-component version of a scalar nodal space, interleaved layout;
    ``nodes`` lists each scalar node twice."""

    def __init__(self, scalar):
        self.scalar = scalar
        self.mesh = scalar.mesh
        self.region = scalar.region
        self.tris = scalar.tris
        self.ndof = 2 * scalar.ndof
        base = scalar.cell_dofs
        self.cell_dofs = (2 * base[:, :, None] + [0, 1]).reshape(len(base), -1)
        self.nloc = 2 * scalar.nloc
        self.on_boundary = np.repeat(scalar.on_boundary, 2)
        self.on_gamma = np.repeat(scalar.on_gamma, 2)
        self.nodes = np.repeat(scalar.nodes, 2, axis=0)

    def interpolate(self, f):
        return self.scalar.interpolate(f).reshape(-1)


_BDM_NMONO = 6
_RT_NMONO = 8
# Gauss rules of the degree-of-freedom functionals: exact on every
# polynomial field the code reduces to DOFs, accurate on smooth callables
_EDGE_POINTS = 5
_INTERIOR_DEGREE = 6


def _monomials(kind, X, Y):
    """Vector monomials in local (shifted, scaled) coordinates X, Y of
    shape (..., npts).

    Returns vals (..., nmono, npts, 2) and divergences (..., nmono, npts)
    with the divergence taken in the local coordinates (caller rescales
    by 1/h).
    """
    nm = _BDM_NMONO if kind == "bdm1" else _RT_NMONO
    lead, npts = X.shape[:-1], X.shape[-1]
    vals = np.zeros(lead + (nm, npts, 2))
    divs = np.zeros(lead + (nm, npts))
    for c in range(2):
        vals[..., 3 * c, :, c] = 1.0
        vals[..., 3 * c + 1, :, c] = X
        vals[..., 3 * c + 2, :, c] = Y
    divs[..., 1, :] = divs[..., 5, :] = 1.0
    if kind == "rt1":
        XY = X * Y
        vals[..., 6, :, 0], vals[..., 6, :, 1] = X * X, XY
        vals[..., 7, :, 0], vals[..., 7, :, 1] = XY, Y * Y
        divs[..., 6, :], divs[..., 7, :] = 3 * X, 3 * Y
    return vals, divs


class FluxSpace:
    """H(div)-conforming flux space (bdm1 or rt1) on the Darcy subdomain.

    Degrees of freedom: for every edge, two moments of the normal component
    against the linear functions valued 1 at each endpoint (endpoints in
    ascending global-index order, the edge normal obtained by rotating the
    ascending tangent clockwise); for rt1 additionally two interior moments
    against the coordinate unit vectors.  ``local_dofs`` applies these
    functionals to fields given at ``dof_points`` and ``scatter`` collects
    the result on the global DOFs; the local bases, the canonical
    interpolant and the auxiliary-space transfers are all built from them.
    ``nodes`` places each DOF, as ``Space.nodes`` does: at its edge's
    midpoint, or (rt1 interior DOFs) at its triangle's centroid.
    """

    def __init__(self, mesh, family):
        if family not in ("bdm1", "rt1"):
            raise ValueError("unknown flux family %r" % (family,))
        self.mesh = mesh
        self.family = family
        self.region = REGION_D
        self.tris, _, eids = _region_entities(mesh, REGION_D)
        self.geom = mesh.geometry(REGION_D)
        emap = -np.ones(len(mesh.edges), dtype=int)
        emap[eids] = np.arange(len(eids))
        self.edge_index = emap
        nt, ne = len(self.tris), len(eids)
        self.nloc = 6 if family == "bdm1" else 8
        self.ndof = 2 * ne + (2 * nt if family == "rt1" else 0)

        # two DOFs per local edge, then (rt1) two interior DOFs
        tri_eids = mesh.tri_edges[self.tris]
        cell = (2 * emap[tri_eids][:, :, None] + [0, 1]).reshape(nt, 6)
        if family == "rt1":
            interior = 2 * ne + 2 * np.arange(nt)[:, None] + [0, 1]
            cell = np.hstack([cell, interior])
        self.cell_dofs = cell
        self._owners = np.bincount(cell.ravel(), minlength=self.ndof)

        # DOF points: the Gauss points of local edge k (opposite vertex k,
        # traversed counterclockwise), then (rt1) the interior rule.  The
        # rule is symmetric, so where the ascending orientation runs
        # against the traversal the two endpoint weights swap.
        sq, wq = quadrature.segment_rule(_EDGE_POINTS)
        self.dof_points = segment_points(REF_VERTICES[[1, 2, 0]],
                                         REF_VERTICES[[2, 0, 1]],
                                         sq).reshape(-1, 2)
        self._edge_weights = np.column_stack([wq * (1 - sq), wq * sq])
        self._flip = mesh.edge_signs()[self.tris] < 0
        self._normals = mesh.edge_normals(tri_eids.ravel()).reshape(nt, 3, 2)
        if family == "rt1":
            tq, twq = quadrature.triangle_rule(_INTERIOR_DEGREE)
            self.dof_points = np.vstack([self.dof_points, tq])
            # (1/|T|) int over T; weights of the reference rule sum to 1/2
            self._interior_weights = 2 * twq
        self._build_local_bases()

        # a point per DOF, like Space.nodes: edge midpoints, then (rt1)
        # triangle centroids, each twice
        ends = mesh.vertices[mesh.edges[eids]]
        nodes = [0.5 * (ends[:, 0] + ends[:, 1])]
        if family == "rt1":
            nodes.append(self.centers)
        self.nodes = np.repeat(np.vstack(nodes), 2, axis=0)
        self.on_boundary, self.on_gamma = _boundary_masks(self.nodes,
                                                          REGION_D)

    def _build_local_bases(self):
        """Monomial coefficients of the basis dual to the DOFs: the inverse
        of the DOF values of the monomials, triangle by triangle."""
        self.centers = self.geom.corners.mean(axis=1)
        self.hscale = np.sqrt(np.abs(0.5 * self.geom.det))
        mono, _ = self._monomials_at(self.geom.map_points(self.dof_points))
        self.coeff = np.linalg.inv(np.swapaxes(self.local_dofs(mono), 1, 2))

    def local_dofs(self, fields, rows=slice(None)):
        """Degrees of freedom, triangle by triangle, of vector fields given
        at the images of ``dof_points`` in the triangles of ``rows`` (all
        by default).

        fields : (nt, m, npts, 2), nt the number of those triangles, or
            (1, m, npts, 2) for fields whose values are shared by every
            triangle
        Returns (nt, m, nloc), in the local order of ``cell_dofs``.
        """
        normals, flip = self._normals[rows], self._flip[rows]
        nt, m = len(flip), fields.shape[1]
        nq = len(self._edge_weights)
        edge = fields[:, :, :3 * nq].reshape(-1, m, 3, nq, 2)
        nrm = normals[:, None, :, None, :]
        un = edge[..., 0] * nrm[..., 0] + edge[..., 1] * nrm[..., 1]
        # normalized moments (1/|e|) int (u.n) q_i with q_1 at the
        # lower-index endpoint; ds = |e| d s cancels the 1/|e|
        mom = (un.reshape(-1, nq) @ self._edge_weights).reshape(nt, m, 3, 2)
        mom = np.where(flip[:, None, :, None], mom[..., ::-1], mom)
        dofs = mom.reshape(nt, m, 6)
        if self.family == "rt1":
            inner = np.swapaxes(fields[:, :, 3 * nq:], 2, 3) \
                @ self._interior_weights
            dofs = np.concatenate(
                [dofs, np.broadcast_to(inner, (nt, m, 2))], axis=2)
        return dofs

    def scatter(self, local, cols, ncols):
        """Sparse (ndof, ncols) matrix from local DOFs.

        local (nt, m, nloc) holds the DOFs of m fields per triangle, field
        j of triangle t belonging to column cols[t, j].  An edge DOF owned
        by two triangles gets the mean of their two values, which coincide
        for a field with single-valued normal trace.  Roundoff entries are
        dropped as in ``csr_from_triplets``.
        """
        rows = self.cell_dofs[:, None, :]
        return csr_from_triplets(rows, cols[:, :, None],
                                 local / self._owners[rows],
                                 (self.ndof, ncols))

    def _monomials_at(self, pts, rows=slice(None)):
        """Monomial values (nt, nmono, np, 2) and local-coordinate
        divergences (nt, nmono, np) at physical points pts (nt, np, 2) of
        the triangles of ``rows``."""
        c, h = self.centers[rows, None], self.hscale[rows, None]
        X = (pts[..., 0] - c[..., 0]) / h
        Y = (pts[..., 1] - c[..., 1]) / h
        return _monomials(self.family, X, Y)

    def tabulate(self, ref_pts):
        """Physical basis values and divergences at mapped points.

        Returns vals (nt, nloc, np, 2) and divs (nt, nloc, np).
        """
        mono, mdiv = self._monomials_at(self.geom.map_points(ref_pts))
        nt, nm = mdiv.shape[:2]
        cT = np.swapaxes(self.coeff, 1, 2)
        vals = (cT @ mono.reshape(nt, nm, -1)).reshape(nt, -1, *mono.shape[2:])
        divs = (cT @ mdiv) / self.hscale[:, None, None]
        return vals, divs

    def field_at(self, coeffs, pts, rows=slice(None)):
        """Values (nt, np, 2) and divergences (nt, np) of the field with
        coefficients coeffs at physical points pts (nt, np, 2) of the
        triangles of ``rows``, built without a basis table: the
        coefficients meet the monomial coefficients first."""
        m = coeffs[self.cell_dofs[rows]][:, None] \
            @ np.swapaxes(self.coeff[rows], 1, 2)
        mono, mdiv = self._monomials_at(pts, rows)
        nt, npts = pts.shape[:2]
        vals = (m @ mono.reshape(nt, -1, 2 * npts)).reshape(nt, npts, 2)
        return vals, (m @ mdiv)[:, 0] / self.hscale[rows, None]

    def field(self, coeffs, ref_pts):
        """Values (nt, np, 2) and divergences (nt, np) of the field with
        coefficients coeffs at mapped reference points, one block of
        triangles at a time."""
        nt, npts = len(self.tris), len(ref_pts)
        vals, divs = np.empty((nt, npts, 2)), np.empty((nt, npts))
        for rows in row_blocks(nt):
            vals[rows], divs[rows] = self.field_at(
                coeffs, self.geom.map_points(ref_pts, rows), rows)
        return vals, divs

    def canonical_interpolation(self, f):
        """Coefficients of the canonical interpolant of a smooth field
        f((N, 2) points) -> (N, 2): its DOFs, by the Gauss rules of
        ``local_dofs``."""
        vals = self.geom.evaluate(f, self.dof_points)[:, None]
        dofs = self.local_dofs(vals)[:, 0] / self._owners[self.cell_dofs]
        return np.bincount(self.cell_dofs.ravel(), dofs.ravel(),
                           minlength=self.ndof)


class TraceSpace:
    """Normal-trace space on the interface: discontinuous linears per edge.

    Coefficients are the values of u.n (n the fixed interface normal,
    pointing into the Darcy half) at the left and right endpoint of each
    interface edge, edges ordered left to right: entries (2k, 2k+1).
    """

    def __init__(self, mesh):
        sig = mesh.interface_edges()
        self.mesh = mesh
        self.ndim = 2 * len(sig.edges)
        # +1 when ascending-index orientation already gives normal (0,-1)
        self.sign = np.where(mesh.edges[sig.edges, 0] == sig.left, 1.0, -1.0)

    def mass_blocks(self):
        """The (ns, 2, 2) diagonal blocks of the trace-space mass."""
        length = self.mesh.interface_edges().length
        return length[:, None, None] / 6.0 * np.array([[2.0, 1.0],
                                                       [1.0, 2.0]])


def sigma_flux_maps(flux, trace):
    """Lift and trace matrices between interface values and flux DOFs.

    Returns (lift, ntrace): ``lift`` (flux.ndof x trace.ndim) sets the
    two moment DOFs of each interface edge so the normal trace (against
    the fixed interface normal) equals the given left/right endpoint
    values; ``ntrace`` (trace.ndim x flux.ndof) recovers those values,
    ntrace @ lift = I.
    """
    sigma = trace.mesh.interface_edges().edges
    sign = trace.sign[:, None, None]
    k = 2 * np.arange(len(sigma))[:, None]
    # per edge: its two moment DOFs, at the lower- and the higher-index
    # endpoint, and the trace values at those same endpoints, which are
    # (left, right) where the ascending orientation runs left to right and
    # (right, left) otherwise; the flipped orientation also flips the sign
    dofs = 2 * flux.edge_index[sigma][:, None] + [0, 1]
    vals = np.where(sign[:, 0] > 0, k + [0, 1], k + [1, 0])
    rows = np.repeat(dofs.ravel(), 2)
    cols = np.repeat(vals, 2, axis=0).ravel()
    mloc = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    lift = sp.coo_matrix(((sign * mloc).ravel(), (rows, cols)),
                         shape=(flux.ndof, trace.ndim)).tocsr()
    ntrace = sp.coo_matrix(((sign * np.linalg.inv(mloc).T).ravel(),
                            (cols, rows)),
                           shape=(trace.ndim, flux.ndof)).tocsr()
    return lift, ntrace


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

    Both spaces must be continuous nodal families on nested meshes of the
    same subdomain, the coarse one numbered like build_unit_square's (a
    ValueError otherwise), both scalar or both VectorSpaces (whose
    prolongation is the interleaved expansion of the scalar one).  Linears
    embed into the bubble-enriched space on the same mesh as its leading
    vertex DOFs; any other prolongation into the bubble-enriched space
    raises ValueError, since bubble coefficients are not nodal values.
    """
    if isinstance(coarse, VectorSpace):
        return vector_expand(nodal_prolongation(coarse.scalar, fine.scalar))
    if fine.family == "p1b":
        if coarse.family != "p1" or coarse.mesh is not fine.mesh:
            raise ValueError("only linears on the same mesh embed into the "
                             "bubble-enriched space")
        return sp.eye(fine.ndof, coarse.ndof, format="csr")
    tri_of = locate_triangles(coarse.mesh, fine.nodes, coarse.region)
    gmap = -np.ones(coarse.mesh.num_triangles, dtype=int)
    gmap[coarse.tris] = np.arange(len(coarse.tris))
    loc = gmap[tri_of]
    if np.any(loc < 0):
        raise ValueError("fine node outside the coarse subdomain")
    ref = coarse.geom.pull_back(loc, fine.nodes)
    # barycentric coordinates (1 - xi - eta, xi, eta); a negative one means
    # locate_triangles met a mesh not numbered like build_unit_square
    if min(ref.min(), (1.0 - ref.sum(axis=1)).min()) < -1e-12:
        raise ValueError("fine node outside its located coarse triangle: "
                         "the coarse mesh is not numbered like "
                         "build_unit_square's")
    bvals = ref_basis(coarse.family, ref)[0].T  # (fine.ndof, nloc)
    return csr_from_triplets(np.arange(fine.ndof)[:, None],
                             coarse.cell_dofs[loc], bvals,
                             (fine.ndof, coarse.ndof))


def vector_expand(P):
    """Scalar-node matrix -> interleaved vector matrix, kron(P, I_2)."""
    return sp.kron(P, sp.eye(2), format="csr")
