"""Block preconditioners: direct inverses, Gauss-Seidel mass sweeps,
multilevel additive (BPX) operators and the two-dimensional nodal
auxiliary-space preconditioner for the div-elliptic Darcy block."""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from . import assembly, quadrature
from .fespace import Space, VectorSpace, nodal_prolongation, vector_expand
from .krylov import LinOp
from .mesh import blockwise, mesh_hierarchy, row_blocks

# largest graph component, in DOFs, whose Gauss-Seidel sweep or inverse
# is assembled explicitly instead of applied by sparse triangular solves
SWEEP_BLOCK_MAX = 8


def direct_inverse(M, order=None):
    """Exact inverse of an SPD sparse matrix.

    A given `order` (a permutation of range(n)) permutes the rows and
    columns of M first, and everything below happens in that order.
    Graph components of at most SWEEP_BLOCK_MAX DOFs (the MINI bubbles)
    are inverted as dense blocks (see _split): a sparse LU would spend a
    supernode on each.  The rest is factored Cholesky-like, rows and
    columns permuted alike and with diagonal pivots: as it stands when
    ordered, or else by a symmetric minimum-degree ordering of M + M^T.
    Dropping row pivoting is safe only for SPD matrices, which the
    symmetry check and the positivity probes below enforce.  Every factor
    is applied by the transposed solve, the same inverse for a symmetric
    matrix, which SuperLU runs as gathers instead of scatters.
    """
    M = sp.csc_matrix(M)
    n = M.shape[0]
    asym = abs(M - M.T).max() if M.nnz else 0.0
    scale = max(abs(M).max(), 1e-300)
    if asym > 1e-10 * scale:
        raise ValueError("matrix is not symmetric (|M - M^T| = %.2e)" % asym)
    permc_spec = "MMD_AT_PLUS_A" if order is None else "NATURAL"

    def factor(A):
        lu = spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return lambda r: lu.solve(r, trans="T")

    if order is None:
        apply = _split(M, np.linalg.inv, factor)
    else:
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order is not a permutation of the %d DOFs" % n)
        ordered = _split(M[order][:, order], np.linalg.inv, factor)

        def apply(r):
            out = np.empty(len(r))
            out[order] = ordered(r[order])
            return out

    rng = np.random.default_rng(12345)
    for _ in range(3):
        x = rng.standard_normal(n)
        if x @ (M @ x) <= 0 or x @ apply(x) <= 0:
            raise ValueError("matrix is not positive definite")
    return LinOp(n, apply)


def _components(M):
    """Graph component label of each DOF, and the component sizes."""
    ncomp, labels = connected_components(M, directed=False)
    return labels, np.bincount(labels, minlength=ncomp)


def _split(M, dense, sparse):
    """Apply of one function of M, taken on the graph components of M
    apart: those of at most SWEEP_BLOCK_MAX DOFs as one sparse product
    with dense(their stacked blocks) (see _blockwise), the others by the
    apply that sparse(M restricted to them) returns."""
    labels, sizes = _components(M)
    small = sizes[labels] <= SWEEP_BLOCK_MAX
    if not small.any():
        return sparse(M)
    S, L = np.flatnonzero(small), np.flatnonzero(~small)
    _, local, sizes = np.unique(labels[S], return_inverse=True,
                                return_counts=True)
    G = _blockwise(M[S][:, S], local, sizes, dense)
    if not len(L):
        return lambda r: G @ r
    rest = sparse(M[L][:, L])

    def apply(r):
        out = np.empty(len(r))
        out[S] = G @ r[S]
        out[L] = rest(r[L])
        return out

    return apply


def gs_sweep(M):
    """One symmetric Gauss-Seidel sweep as an SPD preconditioner.

    Applies ((D+L) D^{-1} (D+U))^{-1}, the standard symmetric-sweep
    substitute for an exact mass inverse.  M splits into its graph
    components (see _split): the sweep of those of at most SWEEP_BLOCK_MAX
    DOFs (a discontinuous pressure mass) is assembled explicitly, one
    dense block per component, the rest is swept by two triangular
    solves.  The sweep of a diagonal matrix (1-DOF components) is its
    exact inverse.
    """
    M = sp.csr_matrix(M)
    if np.any(M.diagonal() <= 0):
        raise ValueError("nonpositive diagonal entry")

    def triangular(A):
        d = A.diagonal()
        lower, upper = (spla.splu(sp.csc_matrix(T), permc_spec="NATURAL",
                                  options={"SymmetricMode": False})
                        for T in (sp.tril(A), sp.triu(A)))
        return lambda r: upper.solve(d * lower.solve(r))

    return LinOp(M.shape[0], _split(M, _sweep, triangular))


def _sweep(B):
    """The sweep inv(D+U) D inv(D+L) of each block of a stack."""
    d = np.diagonal(B, axis1=1, axis2=2)
    return np.linalg.inv(np.triu(B)) @ (d[:, :, None]
                                        * np.linalg.inv(np.tril(B)))


def _blockwise(M, labels, sizes, fn):
    """fn of the dense blocks of a matrix whose graph components (labels,
    sizes) are small, as one CSR matrix.

    Each component keeps its DOFs in ascending global order, so its local
    triangles are the restrictions of the global ones and the blocks may
    interleave or differ in size.  Blocks are padded to a common size
    with the identity and passed to fn as one stack; fn must keep the
    padding apart, as inverses and triangular sweeps do.
    """
    n = M.shape[0]
    m = sizes.max(initial=0)
    order = np.argsort(labels, kind="stable")
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    local = np.empty(n, dtype=np.intp)
    local[order] = np.arange(n) - starts[labels[order]]
    glob = np.zeros((len(sizes), m), dtype=np.intp)
    glob[labels, local] = np.arange(n)

    pad = np.arange(m) >= sizes[:, None]
    B = np.zeros((len(sizes), m, m))
    B[:, np.arange(m), np.arange(m)] = pad
    A = M.tocoo()
    np.add.at(B, (labels[A.row], local[A.row], local[A.col]), A.data)
    G = fn(B)

    c, i, j = np.nonzero(~pad[:, :, None] & ~pad[:, None, :])
    return sp.csr_matrix((G[c, i, j], (glob[c, i], glob[c, j])),
                         shape=(n, n))


def projected_mass_inverse(W, m):
    """Restrict a mass treatment to the zero-mean pressure subspace.

    Given an SPD operator W approximating M^{-1} and the vector m of basis
    integrals, returns W - (Wm)(Wm)^T / (m.Wm): symmetric, positive
    semidefinite with kernel spanned by m, mapping into {p : m.p = 0} and
    acting as the subspace Riesz inverse there when W is exact.
    """
    Wm = W(np.asarray(m, dtype=float))
    denom = m @ Wm
    if denom <= 0:
        raise ValueError("mean vector has nonpositive W-norm")

    def apply(r):
        y = W(r)
        return y - Wm * ((Wm @ r) / denom)

    return LinOp(W.n, apply)


def block_diag_op(ops):
    """Compose operators into a block-diagonal operator."""
    sizes = [op.n for op in ops]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    n = offs[-1]

    def apply(x):
        out = np.empty(n)
        for op, a, b in zip(ops, offs[:-1], offs[1:]):
            out[a:b] = op(x[a:b])
        return out

    return LinOp(n, apply)


def build_bpx(mats, prolongs):
    """Additive multilevel preconditioner over a nested hierarchy.

    mats[0..L] are the level operators (coarsest first) restricted to free
    DOFs; prolongs[l] maps level l to level l+1.  The coarsest level is
    inverted directly, finer levels are diagonally (Jacobi) scaled.  With a
    single level this is the direct coarse inverse.
    """
    if len(mats) != len(prolongs) + 1:
        raise ValueError("need one prolongation between consecutive levels")
    for l, P in enumerate(prolongs):
        if P.shape != (mats[l + 1].shape[0], mats[l].shape[0]):
            raise ValueError("hierarchy is not nested: prolongation %d has "
                             "shape %s" % (l, (P.shape,)))
    coarse = direct_inverse(mats[0])
    inv_diags = [1.0 / m.diagonal() for m in mats[1:]]
    # stored CSR copies: the CSC view P.T restricts bitwise alike, but its
    # scatter-add product made each BPX apply slower
    restricts = [P.T.tocsr() for P in prolongs]

    def apply(r):
        res = [r]
        for R in reversed(restricts):
            res.append(R @ res[-1])
        x = coarse(res.pop())
        for P, d in zip(prolongs, inv_diags):
            x = P @ x + d * res.pop()
        return x

    return LinOp(mats[-1].shape[0], apply)


def nodal_levels(meshes, space, top, matrix, free):
    """Level matrices and prolongations (mats, prolongs) for build_bpx
    over nested meshes (coarsest first) up to `space`, a scalar or vector
    nodal space on meshes[-1].  Each level is matrix(level) on
    free(level), the coarser ones spaces of the space's family; a
    bubble-enriched space sits on a linear level of the top mesh
    instead.  A given `top`, the caller's block on free(space), replaces
    the top level's matrix."""
    spaces, frees = _level_spaces(meshes, space, free)
    levels = spaces if top is None else spaces[:-1]
    mats = [matrix(s)[np.ix_(f, f)].tocsr() for s, f in zip(levels, frees)]
    if top is not None:
        mats.append(top)
    return mats, _level_prolongations(spaces, frees)


def _level_spaces(meshes, space, free):
    """The level spaces of nodal_levels, coarsest first, and their DOFs
    free(level)."""
    scalar = getattr(space, "scalar", space)
    if scalar.family == "p1b":
        spaces = [Space(m, "p1", scalar.region) for m in meshes]
    else:
        spaces = [Space(m, scalar.family, scalar.region) for m in meshes[:-1]]
    if space is not scalar:
        spaces = [VectorSpace(s) for s in spaces]
    spaces.append(space)
    return spaces, [free(s) for s in spaces]


def _level_prolongations(spaces, frees):
    """Prolongations between consecutive level spaces, restricted to each
    level's DOFs in frees."""
    return [nodal_prolongation(c, f)[ff][:, fc].tocsr()
            for c, f, fc, ff in zip(spaces, spaces[1:], frees, frees[1:])]


def interior_dofs(space):
    """The DOFs of a space off its subdomain's whole boundary."""
    return np.flatnonzero(~space.on_boundary)


def _rotated_gradients(scalar, ref_pts, rows):
    """Rotated gradients (d2 v, -d1 v), (nt, nloc, np, 2), of the basis of
    a scalar space at mapped reference points of the triangles of
    ``rows``."""
    g = scalar.gradients(ref_pts, rows)
    return np.stack([g[..., 1], -g[..., 0]], axis=-1)


def _flux_transfer(flux, space, fields):
    """Flux coefficients (nflux, space.ndof) of the canonical interpolants
    of the basis of a space on the flux space's triangles, one block of
    triangles at a time: fields(rows) gives the basis values
    (nt or 1, space.nloc, npts, 2) at the images of flux.dof_points in
    the triangles of ``rows``."""
    local, = blockwise(len(flux.tris), lambda rows: (
        flux.local_dofs(fields(rows), rows),))
    return flux.scatter(local, space.cell_dofs, space.ndof)


def curl_matrix(flux, potential):
    """Flux coefficients (nflux, npotential) of the rotated gradients
    (d2 v, -d1 v) of the potential basis: their canonical interpolants,
    which represent them exactly."""
    return _flux_transfer(flux, potential, lambda rows: _rotated_gradients(
        potential, flux.dof_points, rows))


def nodal_interpolation_matrix(flux, nodal):
    """Canonical interpolation (nflux, 2*nnodal) of the interleaved vector
    nodal basis v*e_x, v*e_y."""
    v = nodal.values(flux.dof_points)
    fields = np.zeros((nodal.nloc, 2, v.shape[1], 2))
    fields[:, 0, :, 0] = fields[:, 1, :, 1] = v
    vec = VectorSpace(nodal)
    shared = fields.reshape(1, vec.nloc, -1, 2)
    return _flux_transfer(flux, vec, lambda rows: shared)


def hx_spaces(flux):
    """The scalar (nodal, potential) Spaces of the auxiliary-space
    preconditioner for a flux space, on its mesh and region.  The nodal
    space has the order of the flux family (linears for bdm1, quadratics
    for rt1, where the two are one object); the stream-function space is
    quadratic for both families, the smallest space whose rotated
    gradients span every divergence-free flux field."""
    potential = Space(flux.mesh, "p2", flux.region)
    nodal = Space(flux.mesh, "p1", flux.region) if flux.family == "bdm1" \
        else potential
    return nodal, potential


def build_hx_transfers(problem, nodal, potential):
    """Transfers (C, Idiv) of the auxiliary-space preconditioner on the
    free DOFs of a Problem's flux space and of the zero-boundary nodal
    spaces: C (nflux, npotential) holds the rotated gradients of the
    potential basis, Idiv (nflux, 2*nnodal) the canonical interpolants of
    the vector nodal basis.  Raises if the rotated-gradient image is not
    represented exactly.
    """
    flux = problem.flux
    C = curl_matrix(flux, potential)
    Idiv = nodal_interpolation_matrix(flux, nodal)
    resid = curl_representation_residual(flux, potential, C)
    if resid > 1e-10:
        raise RuntimeError("rotated-gradient expansion residual %.2e "
                           "signals a basis or orientation bug" % resid)
    free_flux = problem.free_flux
    return (C[free_flux][:, interior_dofs(potential)].tocsr(),
            Idiv[free_flux][:, interior_dofs(VectorSpace(nodal))].tocsr())


def curl_representation_residual(flux, scalar, C):
    """Pointwise residual of the rotated-gradient expansion.

    For three random nodal fields v the rotated gradient is compared against its
    flux expansion C v at interior quadrature points, one block of
    triangles at a time; the expansion is a representation (not an
    approximation), so any nonzero residual beyond roundoff flags a
    construction bug.
    """
    pts = quadrature.triangle_rule(3)[0]
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        z = rng.standard_normal(scalar.ndof)
        coeffs = C @ z
        err = top = 0.0
        for rows in row_blocks(len(flux.tris)):
            curl = np.einsum("tl,tlqc->tqc", z[scalar.cell_dofs[rows]],
                             _rotated_gradients(scalar, pts, rows))
            expansion = flux.field_at(
                coeffs, flux.geom.map_points(pts, rows), rows)[0]
            top = max(top, np.abs(curl).max())
            err = max(err, np.abs(curl - expansion).max())
        worst = max(worst, err / max(top, 1.0))
    return worst


def build_hx_precond(problem, n_coarsest):
    """Auxiliary-space preconditioner S^{-1} + Idiv BPX(L) Idiv^T
    + (1/tau) C BPX(Delta) C^T for a Problem's div-elliptic block
    Adiv_f, as one BPX: the stacked nodal levels of hx_nodal_hierarchy
    from n_coarsest up, under the flux level Adiv_f (Jacobi by its
    diagonal S, transfer [Idiv, C]).  With one nodal level the stacked
    block is factored once and solved directly."""
    nodal, potential = hx_spaces(problem.flux)
    C, Idiv = build_hx_transfers(problem, nodal, potential)
    mats, prolongs = hx_nodal_hierarchy(nodal, potential, problem.params.tau,
                                        n_coarsest)
    mats.append(problem.Adiv_f)
    prolongs.append(sp.hstack([Idiv, C], format="csr"))
    return build_bpx(mats, prolongs)


def hx_nodal_hierarchy(nodal, potential, tau, n_coarsest):
    """Stacked levels (mats, prolongs) of the zero-boundary auxiliary-space
    nodal hierarchies from n_coarsest up to the spaces nodal and
    potential: block_diag(kron(L_l, I_2), tau Delta_l), with
    L = K + tau M and Delta = K, and prolongations
    block_diag(kron(P_l, I_2), P_l).  Where the nodal space is the
    potential space (rt1), L and Delta share its levels and stiffness."""
    meshes = mesh_hierarchy(nodal.mesh, n_coarsest)
    pot = _level_spaces(meshes, potential, interior_dofs)
    nod = pot if nodal is potential else _level_spaces(meshes, nodal,
                                                       interior_dofs)
    mats = []
    # one level at a time: s and t are the nodal and the potential space
    # of the level, f and g their DOFs
    for s, f, t, g in zip(*nod, *pot):
        K = assembly.scalar_stiffness(s)
        L = (K + tau * assembly.scalar_mass(s))[np.ix_(f, f)].tocsr()
        if t is not s:
            K = assembly.scalar_stiffness(t)
        D = K[np.ix_(g, g)].tocsr()
        mats.append(sp.block_diag([vector_expand(L), tau * D], format="csr"))
    Qs = _level_prolongations(*pot)
    Ps = Qs if nodal is potential else _level_prolongations(*nod)
    return mats, [sp.block_diag([vector_expand(P), Q], format="csr")
                  for P, Q in zip(Ps, Qs)]
