"""Structured triangulations of the unit square split at y = 1/2.

The square is meshed by n x n cells, each cut along its bottom-left to
top-right diagonal.  Triangles above the midline belong to the free-flow
region, triangles below to the porous region.  Edges are oriented by
ascending global vertex index, which makes the interface normal equal to
(0, -1) (pointing from the top region into the bottom one).
"""

import numpy as np

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# triangles per block of every per-triangle computation (assembled forms
# and loads, local flux bases, auxiliary-space transfers, field
# evaluation and error norms): bounds the temporaries of each block.
# With blocks of 1024 each compute_errors call after a blocked Problem
# build took thousands of minor page faults; with 512 it takes none.  A
# multiple of four: the BLAS product of a porous load block then takes
# its rows four at a time, as the product over a whole region of an even
# mesh does, and gives the same bits
EVAL_ROWS = 512


def row_blocks(nt):
    """Slices of consecutive triangles, EVAL_ROWS at a time."""
    return (slice(a, a + EVAL_ROWS) for a in range(0, nt, EVAL_ROWS))


def blockwise(nt, block):
    """Per-triangle arrays of nt triangles, computed one block of
    row_blocks at a time: block(rows) returns a tuple of arrays whose
    first axis runs over the triangles of ``rows``, and each is stored
    into one (nt, ...) array; returns the tuple of those."""
    out = None
    for rows in row_blocks(nt):
        got = block(rows)
        if out is None:
            out = tuple(np.empty((nt,) + a.shape[1:]) for a in got)
        for o, a in zip(out, got):
            o[rows] = a
    return out


class AffineGeometry:
    """Affine maps x = origin + J xi from the reference triangle onto
    triangles, one row per triangle in the order of ``tris``.

    Attributes
    ----------
    corners : (nt, 3, 2) vertex coordinates
    origin : (nt, 2) image of the reference origin (corner 0)
    J : (nt, 2, 2) Jacobians with columns p1 - p0 and p2 - p0
    det : (nt,) Jacobian determinants, twice the triangle areas
    invJT : (nt, 2, 2) inverse transposed Jacobians, which map reference
        gradients to physical ones
    """

    def __init__(self, vertices, triangles, tris):
        p = vertices[triangles[tris]]
        self.corners = p
        self.origin = p[:, 0]
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.empty_like(J)
        invJT[:, 0, 0] = J[:, 1, 1]
        invJT[:, 0, 1] = -J[:, 1, 0]
        invJT[:, 1, 0] = -J[:, 0, 1]
        invJT[:, 1, 1] = J[:, 0, 0]
        invJT /= det[:, None, None]
        self.J, self.det, self.invJT = J, det, invJT

    def map_points(self, ref_pts, rows=slice(None)):
        """Physical images (nt, np, 2) of reference points (np, 2), on the
        triangles of ``rows`` (all by default)."""
        ref = np.asarray(ref_pts, dtype=float)
        o, J = self.origin[rows, None], self.J[rows, None]
        out = np.empty((len(o), len(ref), 2))
        # one physical coordinate at a time: the point axis stays innermost
        for d in range(2):
            out[..., d] = o[..., d] + J[..., d, 0] * ref[:, 0] \
                + J[..., d, 1] * ref[:, 1]
        return out

    def evaluate(self, f, ref_pts):
        """A pointwise function f((N, 2) points) at the images of reference
        points, as an (nt, np, ...) array.  f sees one block of triangles
        at a time."""
        def block(rows):
            got = f(self.map_points(ref_pts, rows).reshape(-1, 2))
            return np.reshape(got, (-1, len(ref_pts)) + np.shape(got)[1:]),

        return blockwise(len(self.det), block)[0]

    def pull_back(self, rows, phys_pts):
        """Reference coordinates of physical points (np, 2), point i taken
        in the triangle of row ``rows[i]``."""
        return np.einsum("nba,nb->na", self.invJT[rows],
                         phys_pts - self.origin[rows])


def segment_points(a, b, s):
    """Points a + s (b - a), shape (ns, nq, 2), of segments a, b (ns, 2)."""
    return a[:, None, :] + s[:, None] * (b - a)[:, None, :]


class InterfaceEdges:
    """The interface edges (both endpoints on y = 1/2) ordered left to
    right by midpoint, with their owners.

    Attributes
    ----------
    edges : (ns,) edge indices
    left, right : (ns,) vertex indices of the left and right endpoint
    length : (ns,) edge lengths
    tri : (ns, 2) owning triangle in region 0 (Stokes) and in region 1
        (Darcy), global indices
    row : (ns, 2) position of that triangle in ``region_triangles``
    """

    def __init__(self, mesh):
        v, ends = mesh.vertices, mesh.edges
        e = np.flatnonzero(np.all(np.abs(v[ends, 1] - 0.5) < 1e-12, axis=1))
        e = e[np.argsort(0.5 * (v[ends[e, 0], 0] + v[ends[e, 1], 0]))]
        a, b = ends[e, 0], ends[e, 1]
        swap = v[a, 0] > v[b, 0]
        self.edges = e
        self.left = np.where(swap, b, a)
        self.right = np.where(swap, a, b)
        self._ends = v[self.left], v[self.right]
        self.length = np.linalg.norm(self._ends[1] - self._ends[0], axis=1)

        position = -np.ones(len(mesh.edges), dtype=int)
        position[e] = np.arange(len(e))
        k = position[mesh.tri_edges]
        t = np.nonzero(np.any(k >= 0, axis=1))[0]
        self.tri = np.empty((len(e), 2), dtype=int)
        self.tri[k[t].max(axis=1), mesh.tri_region[t]] = t
        self.row = np.column_stack([
            np.searchsorted(mesh.region_triangles(r), self.tri[:, r])
            for r in (0, 1)])
        # reference coordinates of both endpoints in each owner
        verts = mesh.triangles[self.tri]
        self._ref_ends = [REF_VERTICES[np.argmax(verts == v[:, None, None],
                                                 axis=2)]
                          for v in (self.left, self.right)]

    def points(self, s):
        """Physical points (ns, nq, 2) at parameters s from the left end."""
        return segment_points(*self._ends, s)

    def ref_points(self, region, s):
        """Reference coordinates (ns, nq, 2) of ``points(s)`` in the owning
        triangle of the region (exact: affine maps keep parameters)."""
        return segment_points(self._ref_ends[0][:, region],
                              self._ref_ends[1][:, region], s)


class CoupledMesh:
    """Triangulation of (0,1)^2 with its subdomain split.

    Attributes
    ----------
    n : int
        subdivisions per unit length
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counterclockwise
    tri_region : (nt,) int array, 0 in the Stokes half, 1 in the Darcy half
    edges : (ne, 2) int array, each row sorted ascending
    tri_edges : (nt, 3) int array, edge opposite local vertex k
    """

    def __init__(self, n, vertices, triangles, tri_region):
        self.n = n
        self.h = 1.0 / n
        self.vertices = vertices
        self.triangles = triangles
        self.tri_region = tri_region
        self._build_edges()
        self._geometry = {}
        self._interface = None

    def _build_edges(self):
        t = self.triangles
        # edge k of a triangle is opposite local vertex k
        pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        pairs = np.sort(pairs, axis=1).astype(np.int64, copy=False)
        # one integer key per vertex pair, ordered as the pairs are
        # lexicographically
        nv = np.int64(self.num_vertices)
        keys, inv = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                              return_inverse=True)
        self.edges = np.column_stack(np.divmod(keys, nv)).astype(
            t.dtype, copy=False)
        self.tri_edges = inv.reshape(3, -1).T

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    def region_triangles(self, region):
        """Indices of triangles in region 0 (Stokes) or 1 (Darcy)."""
        return np.where(self.tri_region == region)[0]

    def geometry(self, region=None):
        """Cached affine geometry of the triangles of region 0 (Stokes) or
        1 (Darcy), or of the whole mesh for region None."""
        if region not in self._geometry:
            tris = (np.arange(self.num_triangles) if region is None
                    else self.region_triangles(region))
            self._geometry[region] = AffineGeometry(self.vertices,
                                                    self.triangles, tris)
        return self._geometry[region]

    def interface_edges(self):
        """Cached left-to-right interface edge map (see InterfaceEdges)."""
        if self._interface is None:
            self._interface = InterfaceEdges(self)
        return self._interface

    def edge_normals(self, eids):
        """Unit normals of edges: the ascending-index tangent rotated
        clockwise."""
        a = self.vertices[self.edges[eids, 0]]
        b = self.vertices[self.edges[eids, 1]]
        tang = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
        return np.column_stack([tang[:, 1], -tang[:, 0]])

    def edge_signs(self):
        """Per-triangle, per-local-edge orientation signs.

        +1 where the ascending-index orientation of edge k agrees with the
        counterclockwise traversal of the triangle; a pure function of the
        global vertex indices.
        """
        t = self.triangles
        s = np.empty((len(t), 3), dtype=int)
        s[:, 0] = np.where(t[:, 1] < t[:, 2], 1, -1)
        s[:, 1] = np.where(t[:, 2] < t[:, 0], 1, -1)
        s[:, 2] = np.where(t[:, 0] < t[:, 1], 1, -1)
        return s

    def dissection(self, points):
        """Nested-dissection order of DOFs at ``points`` (N, 2), as a
        permutation of range(N), for factoring a block of a finite
        element matrix on this mesh.

        Starting from the cell box that bounds the points, each box is
        bisected along its longer side (x on a tie) at its middle grid
        line; the points exactly on that line are its separator and come
        after both halves.  Single cells are not split and keep the input
        order, as do the points of one separator.  When no triangle
        crosses a grid line (``build_unit_square`` and ``refine_uniform``
        meshes) the separator decouples the two halves; on any mesh the
        order is a valid permutation, only its fill differs.

        One vectorized pass per level: each point carries its box and
        its path (left 0, right 1, separator 2) as base-3 digits, and one
        stable argsort of the paths gives the post-order.
        """
        g = np.asarray(points, dtype=float).reshape(-1, 2) * self.n
        key = np.zeros(len(g), dtype=np.int64)
        live = np.arange(len(g))
        # the live points' coordinates and box bounds, one array per axis
        coord = [g[:, 0].copy(), g[:, 1].copy()]
        lo = [np.full(len(g), np.floor(c.min(initial=np.inf))) for c in coord]
        hi = [np.full(len(g), np.ceil(c.max(initial=-np.inf))) for c in coord]
        while len(live):
            along_y = hi[1] - lo[1] > hi[0] - lo[0]
            half = np.where(along_y, hi[1] - lo[1], hi[0] - lo[0]) // 2
            mid = np.where(along_y, lo[1], lo[0]) + half
            c = np.where(along_y, coord[1], coord[0])
            side = np.where(np.abs(c - mid) < 1e-9, 2, c > mid)
            side[half == 0] = 0  # a single cell: the path ends
            key *= 3
            key[live] += side
            for d, on_d in enumerate((~along_y, along_y)):
                hi[d] = np.where(on_d & (side == 0), mid, hi[d])
                lo[d] = np.where(on_d & (side == 1), mid, lo[d])
            keep = (half > 0) & (side < 2)
            live = live[keep]
            coord, lo, hi = ([a[keep] for a in arrs]
                             for arrs in (coord, lo, hi))
        return np.argsort(key, kind="stable")


def build_unit_square(n):
    """Uniform n x n mesh of (0,1)^2, every cell split bottom-left to top-right.

    Parameters
    ----------
    n : even int >= 2, so that y = 1/2 is a mesh line.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be an even integer >= 2, got %r" % (n,))
    xs = np.arange(n + 1) / n
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    # cell (i, j), row by row: corners a, b, c, d counterclockwise from
    # the bottom left, split into (a, b, c) and (a, c, d)
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    tris = np.column_stack([a, a + 1, a + n + 2, a, a + n + 2, a + n + 1])
    region = np.where((j + 0.5) / n > 0.5, 0, 1)
    return CoupledMesh(n, vertices, tris.reshape(-1, 3), np.repeat(region, 2))


def refine_uniform(mesh):
    """Red refinement: each triangle is split into four via edge midpoints."""
    nv = mesh.num_vertices
    mid_id = nv + np.arange(len(mesh.edges))
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]] +
                       mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])

    t = mesh.triangles
    m0 = mid_id[mesh.tri_edges[:, 0]]  # midpoint of edge (v1, v2)
    m1 = mid_id[mesh.tri_edges[:, 1]]  # midpoint of edge (v2, v0)
    m2 = mid_id[mesh.tri_edges[:, 2]]  # midpoint of edge (v0, v1)
    children = np.empty((4 * len(t), 3), dtype=int)
    children[0::4] = np.column_stack([t[:, 0], m2, m1])
    children[1::4] = np.column_stack([m2, t[:, 1], m0])
    children[2::4] = np.column_stack([m1, m0, t[:, 2]])
    children[3::4] = np.column_stack([m2, m0, m1])
    region = np.repeat(mesh.tri_region, 4)
    return CoupledMesh(2 * mesh.n, vertices, children, region)


def mesh_hierarchy(mesh, n_coarsest):
    """Nested meshes [coarsest ... mesh] for multilevel preconditioners.

    The size halves while it is above n_coarsest and divisible by 4, so
    every level is an even mesh: n = 12 gives [6, 12] for every
    n_coarsest below 12, and n = 10 the mesh alone.  The coarser levels
    are built fresh (the uniform structure makes consecutive levels
    nested); the given mesh itself is the finest level.
    """
    sizes = [mesh.n]
    while sizes[-1] > n_coarsest and sizes[-1] % 4 == 0:
        sizes.append(sizes[-1] // 2)
    return [build_unit_square(s) for s in reversed(sizes[1:])] + [mesh]
