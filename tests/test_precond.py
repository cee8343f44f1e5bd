from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from stokesdarcy import Problem, build_unit_square
from stokesdarcy import assembly as asm
from stokesdarcy import precond
from stokesdarcy import quadrature as quad
from stokesdarcy.fespace import (REGION_D, FluxSpace, Space, VectorSpace,
                                 locate_triangles, ref_basis)
from stokesdarcy.krylov import LinOp, spd_condition_estimate
from stokesdarcy.mesh import EVAL_ROWS


def test_direct_inverse_diagonal():
    op = precond.direct_inverse(sp.diags([2.0, 4.0]).tocsr())
    assert np.allclose(op(np.array([2.0, 4.0])), [1.0, 1.0])


def _spd_block(pr, block):
    """The free-flow velocity block A_ff, or the div-elliptic Darcy block
    Adiv_f on the free flux DOFs."""
    return pr.A_ff if block == "A_ff" else pr.Adiv_f


@pytest.mark.parametrize("pair,block", [("mini", "A_ff"), ("th", "darcy")])
def test_direct_inverse_roundtrip(problem_cache, rng, pair, block):
    M = _spd_block(problem_cache(pair, 8), block)
    op = precond.direct_inverse(M)
    for _ in range(3):
        b = rng.standard_normal(op.n)
        x = op(b)
        assert np.linalg.norm(M @ x - b) <= 1e-10 * np.linalg.norm(b)
    ok, err = op.check_symmetry(rng, tol=1e-12)
    assert ok, err


def _block_nodes(pr, block):
    """The nodes of a block's DOFs."""
    if block == "A_ff":
        return pr.vel.nodes[pr.free_vel]
    return pr.flux.nodes[pr.free_flux]


def _block_order(pr, block):
    """The nested-dissection order the production builders factor a
    block in: the mesh's order of the block's DOF nodes."""
    return pr.mesh.dissection(_block_nodes(pr, block))


def _factor_fill(M, monkeypatch, order=None):
    """L+U fill of direct_inverse's factorization of M (in `order`, when
    given), and the factors."""
    splu = precond.spla.splu
    factors = []

    def capture(*args, **kwargs):
        lu = splu(*args, **kwargs)
        factors.append(lu)
        return lu

    with monkeypatch.context() as m:
        m.setattr(precond.spla, "splu", capture)
        precond.direct_inverse(M, order)
    assert len(factors) == 1
    return factors[0].L.nnz + factors[0].U.nnz, factors[0]


@pytest.mark.parametrize("pair,n,block", [("th", 16, "darcy"),
                                          ("mini", 32, "A_ff")])
def test_direct_inverse_symmetric_ordering(problem_cache, monkeypatch,
                                           undropped, pair, n, block):
    """SPD blocks are factored with one symmetric permutation and diagonal
    pivots.  The Taylor-Hood Darcy block takes at most half the L+U fill
    of SuperLU's default column ordering with partial pivoting (0.38 of
    it).  The mini velocity block, which assembly stores without its
    roundoff bubble-vertex couplings, takes no more than the default
    ordering (0.91 of it) and at most 0.8 of the fill of the same block
    assembled with every roundoff entry (0.75 of it)."""
    M = sp.csc_matrix(_spd_block(problem_cache(pair, n), block))
    fill, lu = _factor_fill(M, monkeypatch)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    default = precond.spla.splu(M)
    default_fill = default.L.nnz + default.U.nnz
    if block == "darcy":
        assert fill <= 0.5 * default_fill
        return
    assert fill <= default_fill
    with undropped():
        plain = _spd_block(Problem(pair, n), block)
    assert plain.nnz > M.nnz
    assert fill <= 0.8 * _factor_fill(plain, monkeypatch)[0]


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
@pytest.mark.parametrize("block", ["A_ff", "darcy"])
def test_dissection_first_split_separates(problem_cache, pair, block):
    """The first bisection line of a block's nested-dissection order
    splits its DOFs into two halves with no nonzero of the block between
    them, ordered left half, right half, then the DOFs on the line."""
    pr = problem_cache(pair, 16)
    M = sp.csr_matrix(_spd_block(pr, block))
    g = _block_nodes(pr, block) * pr.n
    lo, hi = np.floor(g.min(axis=0)), np.ceil(g.max(axis=0))
    axis = int(hi[1] - lo[1] > hi[0] - lo[0])
    c = g[:, axis] - (lo[axis] + (hi[axis] - lo[axis]) // 2)
    left, right = np.flatnonzero(c < -1e-9), np.flatnonzero(c > 1e-9)
    line = np.flatnonzero(np.abs(c) <= 1e-9)
    assert min(len(left), len(right), len(line)) > 0
    assert M[left][:, right].nnz == 0
    rank = np.argsort(_block_order(pr, block))
    assert rank[left].max() < rank[right].min()
    assert rank[right].max() < rank[line].min()


@pytest.mark.parametrize("pair,block,ratio", [("mini", "darcy", 0.75),
                                              ("th", "A_ff", 0.8)])
def test_dissection_fill_against_minimum_degree(monkeypatch, pair, block,
                                                ratio):
    """At n = 64 the nested-dissection order leaves at most `ratio` of
    the minimum-degree L+U fill (0.69 for the mini Darcy block, 0.75 for
    the Taylor-Hood velocity block)."""
    pr = Problem(pair, 64)
    M = _spd_block(pr, block)
    mmd = _factor_fill(M, monkeypatch)[0]
    fill, lu = _factor_fill(M, monkeypatch, _block_order(pr, block))
    assert np.array_equal(lu.perm_c, np.arange(M.shape[0]))
    assert fill <= ratio * mmd


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
@pytest.mark.parametrize("block", ["A_ff", "darcy"])
def test_direct_inverse_in_dissection_order(problem_cache, rng, pair,
                                            block):
    """Factoring in the nested-dissection order gives the same symmetric
    inverse as the minimum-degree factorization."""
    pr = problem_cache(pair, 16)
    M = _spd_block(pr, block)
    ordered = precond.direct_inverse(M, _block_order(pr, block))
    plain = precond.direct_inverse(M)
    for _ in range(3):
        b = rng.standard_normal(M.shape[0])
        want = plain(b)
        assert np.linalg.norm(ordered(b) - want) \
            <= 1e-10 * np.linalg.norm(want)
    ok, err = ordered.check_symmetry(rng, tol=1e-12)
    assert ok, err


def test_direct_inverse_rejects_a_bad_order():
    M = sp.diags([2.0, 3.0, 4.0]).tocsr()
    for order in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError):
            precond.direct_inverse(M, np.array(order))


@pytest.mark.parametrize("kind,block", [("direct", "A_ff"), ("pd0", "darcy")])
def test_direct_kinds_factor_in_dissection_order(mini8, monkeypatch, kind,
                                                 block):
    """The `direct` and `pd0` builders factor their block in the mesh's
    nested-dissection order, kept as is (no fill-reducing column
    permutation of SuperLU's own)."""
    from stokesdarcy.solver import KINDS
    splu = precond.spla.splu
    calls = []

    def capture(A, **kwargs):
        calls.append((A, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(precond.spla, "splu", capture)
    KINDS[kind].build(mini8)
    assert len(calls) == 1
    A, kwargs = calls[0]
    assert kwargs["permc_spec"] == "NATURAL"
    M = sp.csc_matrix(_spd_block(mini8, block))
    order = _block_order(mini8, block)
    if block == "A_ff":
        # the bubble pairs are inverted apart; the order keeps the rest
        labels, sizes = precond._components(M)
        big = sizes[labels] > precond.SWEEP_BLOCK_MAX
        order = order[big[order]]
    assert abs(A - M[order][:, order]).max() == 0


def test_direct_inverse_small_components_apart(mini8, monkeypatch):
    """Graph components of at most SWEEP_BLOCK_MAX DOFs are inverted as
    dense blocks and only the rest is factored: on scattered small blocks
    plus a 20-DOF chain the solve matches a plain sparse LU, and the mini
    velocity block, whose bubble pairs are components of their own,
    factors only its vertex DOFs."""
    chain = sp.diags([np.full(19, -1.0), np.full(20, 4.0), np.full(19, -1.0)],
                     [-1, 0, 1])
    B = sp.block_diag([_scattered_blocks(), chain]).tocsr()
    p = np.random.default_rng(8).permutation(B.shape[0])
    M = B[p][:, p].tocsc()
    splu = precond.spla.splu
    shapes = []

    def capture(A, **kwargs):
        shapes.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(precond.spla, "splu", capture)
    b = np.random.default_rng(9).standard_normal(M.shape[0])
    want = splu(M).solve(b)
    got = precond.direct_inverse(M)(b)
    assert shapes == [(20, 20)]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    shapes.clear()
    precond.direct_inverse(mini8.A_ff)
    bubbles = mini8.vel.scalar.cell_dofs[:, 3]
    vertex = ~np.isin(mini8.free_vel // 2, bubbles)
    assert vertex.sum() < len(vertex)
    assert shapes == [(vertex.sum(),) * 2]


def _mixed_blocks():
    """The scattered blocks, one dense 8-DOF block (the largest small
    component) and a 20-DOF chain, under one random symmetric
    permutation."""
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((8, 8))
    chain = sp.diags([np.full(19, -1.0), np.full(20, 4.0), np.full(19, -1.0)],
                     [-1, 0, 1])
    B = sp.block_diag([_scattered_blocks(), Q @ Q.T + 8 * np.eye(8),
                       chain]).tocsr()
    p = rng.permutation(B.shape[0])
    return B[p][:, p].tocsr()


def _factored_shapes(monkeypatch):
    """List that collects the shape of every matrix SuperLU factors."""
    splu = precond.spla.splu
    shapes = []

    def capture(A, **kwargs):
        shapes.append(A.shape)
        return splu(A, **kwargs)

    monkeypatch.setattr(precond.spla, "splu", capture)
    return shapes


@pytest.mark.parametrize("ordered", [False, True])
def test_direct_inverse_mixed_components(monkeypatch, ordered):
    """Components of at most SWEEP_BLOCK_MAX DOFs next to a 20-DOF chain:
    only the chain is factored, and the inverse, without an order and in
    a random one, equals the dense inverse."""
    M = _mixed_blocks()
    order = np.random.default_rng(12).permutation(M.shape[0]) \
        if ordered else None
    shapes = _factored_shapes(monkeypatch)
    op = precond.direct_inverse(M, order)
    assert shapes == [(20, 20)]
    ref = np.linalg.inv(M.toarray())
    S = np.column_stack([op(e) for e in np.eye(op.n)])
    assert np.linalg.norm(S - ref) <= 1e-14 * np.linalg.norm(ref)


def test_direct_inverse_rejects_nonsymmetric():
    M = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        precond.direct_inverse(M)


def test_direct_inverse_rejects_indefinite():
    with pytest.raises(ValueError):
        precond.direct_inverse(sp.diags([1.0, -2.0]).tocsr())


def test_gs_sweep_spd(mini8, rng):
    op = precond.gs_sweep(mini8.M_S)
    ok, err = op.check_symmetry(rng, tol=1e-10)
    assert ok, err
    for _ in range(5):
        x = rng.standard_normal(op.n)
        assert x @ op(x) > 0


def _scattered_blocks():
    """SPD block-diagonal matrix of 1-, 2- and 3-DOF blocks under a random
    symmetric permutation, so no block is contiguous."""
    rng = np.random.default_rng(5)
    blocks = []
    for size in [1, 3, 2, 2, 1, 3, 3, 1, 2]:
        Q = rng.standard_normal((size, size))
        blocks.append(Q @ Q.T + size * np.eye(size))
    B = sp.block_diag(blocks).tocsr()
    p = rng.permutation(B.shape[0])
    return B[p][:, p].tocsr()


def _sweep_matrix(which, problem_cache):
    """Taylor-Hood M_D (block path), mini M_S (triangular path), the
    scattered blocks, or the mixed blocks (both paths), at n = 8."""
    if which == "scattered":
        return _scattered_blocks()
    if which == "mixed":
        return _mixed_blocks()
    return problem_cache("th", 8).M_D if which == "th" \
        else problem_cache("mini", 8).M_S


@pytest.mark.parametrize("which", ["th", "mini", "scattered", "mixed"])
def test_gs_sweep_matches_dense_reference(problem_cache, which):
    """Block path (Taylor-Hood M_D, scattered blocks), triangular path
    (mini M_S) and both together (mixed blocks, whose dense sweep couples
    no two components) all apply inv(D+U) D inv(D+L)."""
    M = _sweep_matrix(which, problem_cache)
    A = M.toarray()
    ref = np.linalg.inv(np.triu(A)) @ np.diag(np.diag(A)) \
        @ np.linalg.inv(np.tril(A))
    op = precond.gs_sweep(M)
    S = np.column_stack([op(e) for e in np.eye(op.n)])
    assert np.linalg.norm(S - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("which,factorizations", [("th", 0), ("mini", 2),
                                                   ("mixed", 2)])
def test_gs_sweep_block_path_factors_nothing(problem_cache, monkeypatch,
                                             which, factorizations):
    """The disconnected Taylor-Hood M_D (3-DOF blocks) is swept by one
    assembled matrix; the connected mini M_S by two triangular factors;
    the mixed blocks by two triangular factors of the 20-DOF chain
    alone."""
    M = _sweep_matrix(which, problem_cache)
    shapes = _factored_shapes(monkeypatch)
    precond.gs_sweep(M)
    assert len(shapes) == factorizations
    labels, sizes = precond._components(M)
    big = np.sum(sizes[labels] > precond.SWEEP_BLOCK_MAX)
    assert all(shape == (big, big) for shape in shapes)


@pytest.mark.parametrize("entry", [-1.0, 0.0])
@pytest.mark.parametrize("n", [2, 12])
def test_gs_sweep_rejects_nonpositive_diagonal(entry, n):
    """A 2x2 matrix takes the block path, a 12-DOF chain the triangular
    one; neither may return a sweep of a nonpositive diagonal."""
    d = np.full(n, 2.0)
    d[0] = entry
    M = sp.diags([np.full(n - 1, 0.1), d, np.full(n - 1, 0.1)], [-1, 0, 1])
    with pytest.raises(ValueError, match="nonpositive diagonal entry"):
        precond.gs_sweep(M)


def test_gs_sweep_of_diagonal_mass_is_exact_inverse(mini8, monkeypatch):
    """The diagonal P0 Darcy mass splits into 1-DOF blocks: its sweep is
    assembled without a factorization and is the exact inverse."""
    splu = precond.spla.splu
    calls = []

    def count(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(precond.spla, "splu", count)
    op = precond.gs_sweep(mini8.M_D)
    assert not calls
    d = mini8.M_D.diagonal()
    np.testing.assert_allclose(op(np.ones(len(d))), 1 / d, rtol=1e-15, atol=0)
    x = np.arange(1.0, len(d) + 1)
    assert np.allclose(op(x), x / d)


def test_projected_mass_inverse(mini8, rng):
    from stokesdarcy.assembly import pressure_integral
    m = pressure_integral(mini8.dpres)
    W = precond.gs_sweep(mini8.M_D)
    P = precond.projected_mass_inverse(W, m)
    r = rng.standard_normal(P.n)
    y = P(r)
    assert abs(m @ y) <= 1e-12 * np.abs(y).max()
    assert np.abs(P(m)).max() <= 1e-12
    # acts as the subspace Riesz inverse: M y = r up to a multiple of m
    resid = mini8.M_D @ y - r
    resid -= m * (m @ resid) / (m @ m)
    assert np.abs(resid).max() <= 1e-10 * np.abs(r).max()


def test_block_diag_sizes(mini8):
    a = precond.direct_inverse(sp.eye(3, format="csr"))
    b = precond.direct_inverse(sp.eye(5, format="csr"))
    op = precond.block_diag_op([a, b])
    assert op.n == 8
    assert np.allclose(op(np.ones(8)), 1.0)


def test_exact_block_preconditioner_is_inverse(mini8, rng):
    """The direct outer preconditioner inverts A_ff on the velocity rows;
    its pressure rows are one Gauss-Seidel sweep of the (non-diagonal)
    pressure mass."""
    from stokesdarcy.solver import SolveConfig, outer_preconditioner
    P = outer_preconditioner(mini8, SolveConfig("mini", 8))
    sweep = precond.gs_sweep(mini8.M_S)
    nf = mini8.A_ff.shape[0]
    for _ in range(10):
        x = rng.standard_normal(P.n)
        y = P(np.concatenate([mini8.A_ff @ x[:nf], x[nf:]]))
        assert np.linalg.norm(y[:nf] - x[:nf]) \
            <= 1e-10 * np.linalg.norm(x[:nf])
        assert np.array_equal(y[nf:], sweep(x[nf:]))


def test_bpx_single_level_is_direct(rng):
    A = sp.diags([2.0, 3.0, 4.0]).tocsr()
    op = precond.build_bpx([A], [])
    x = rng.standard_normal(3)
    assert np.allclose(op(x), x / A.diagonal())


def test_bpx_rejects_mismatched_hierarchy():
    A0 = sp.eye(3, format="csr")
    A1 = sp.eye(7, format="csr")
    P = sp.csr_matrix(np.ones((5, 3)))
    with pytest.raises(ValueError):
        precond.build_bpx([A0, A1], [P])


def test_bpx_spd_probe(problem_cache, rng):
    from stokesdarcy.solver import stokes_velocity_bpx
    op = stokes_velocity_bpx(problem_cache("mini", 16))
    worst = min(rng.standard_normal(op.n) @ op(rng.standard_normal(op.n))
                for _ in range(0, 1))
    for _ in range(20):
        x = rng.standard_normal(op.n)
        assert x @ op(x) > 0
    ok, err = op.check_symmetry(rng, tol=1e-10)
    assert ok, err


def test_bpx_spectral_bound_ratio(problem_cache, monkeypatch):
    """Full-depth multilevel conditioning across refinement.

    Lanczos gives kappa = 10.39 / 16.20 / 21.37 at n = 8 / 16 / 32 for the
    all-levels hierarchy, a growth ratio of 2.06 over two refinements;
    frozen here with a small safety margin.  (The production hierarchy
    floors at n = 8 to match the reported iteration counts and is covered
    by the acceptance suite.)"""
    from stokesdarcy import solver
    monkeypatch.setattr(solver, "bpx_coarsest", lambda n, enriched: 2)
    conds = {}
    for n in (8, 32):
        pr = problem_cache("mini", n)
        op = solver.stokes_velocity_bpx(pr)
        conds[n] = spd_condition_estimate(pr.A_ff, op, k=90, seed=5)
    assert conds[8] == pytest.approx(10.39, rel=0.05)
    assert conds[32] == pytest.approx(21.37, rel=0.05)
    assert conds[32] / conds[8] <= 2.2


@pytest.mark.parametrize("pair", ["mini", "th"])
def test_hx_divcurl_and_spd(problem_cache, rng, pair):
    pr = problem_cache(pair, 8)
    nodal, potential = precond.hx_spaces(pr.flux)
    C, _ = precond.build_hx_transfers(pr, nodal, potential)
    D = asm.flux_operator_matrices(pr.flux, pr.params.tau)[1][
        np.ix_(pr.free_flux, pr.free_flux)]
    assert abs(D @ C).max() <= 1e-10
    assert precond.curl_representation_residual(
        pr.flux, potential, precond.curl_matrix(pr.flux, potential)) <= 1e-12
    op = precond.build_hx_precond(pr, 8)
    for _ in range(20):
        x = rng.standard_normal(op.n)
        assert x @ op(x) > 0


def test_hx_curl_columns_mass_norm(problem_cache):
    """Flux-mass-norm residual of the rotated-gradient expansion, column
    by column on the coarsest production mesh."""
    pr = problem_cache("mini", 8)
    potential = Space(pr.mesh, "p2", REGION_D)
    C = precond.curl_matrix(pr.flux, potential)
    pts, w = quad.triangle_rule(6)
    grads, det = potential.gradients(pts), potential.geom.det
    fvals, _ = pr.flux.tabulate(pts)
    curl = np.stack([grads[:, :, :, 1], -grads[:, :, :, 0]], axis=-1)
    worst = 0.0
    Ccsc = C.tocsc()
    for col in range(potential.ndof):
        c = np.asarray(Ccsc[:, col].todense()).ravel()
        mask = np.any(potential.cell_dofs == col, axis=1)
        tl = np.where(mask)[0]
        lidx = np.argmax(potential.cell_dofs[tl] == col, axis=1)
        expansion = np.einsum("tl,tlqc->tqc", c[pr.flux.cell_dofs[tl]],
                              fvals[tl])
        diff = expansion - curl[tl, lidx]
        resid2 = np.einsum("q,tqc,tqc,t->", w, diff, diff, det[tl])
        worst = max(worst, np.sqrt(max(resid2, 0.0)))
    assert worst <= 1e-12


def test_hx_interpolation_of_constant():
    """On the unconstrained spaces the interpolation matrix reproduces
    constant fields exactly (linears are contained in the flux space)."""
    mesh = build_unit_square(4)
    flux = FluxSpace(mesh, "bdm1")
    nodal = Space(mesh, "p1", REGION_D)
    Idiv = precond.nodal_interpolation_matrix(flux, nodal)
    z = np.zeros(2 * nodal.ndof)
    z[0::2] = 1.0  # the constant field (1, 0)
    want = flux.canonical_interpolation(
        lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    assert np.abs(Idiv @ z - want).max() <= 1e-12


@pytest.mark.parametrize("family,nodal_family", [("bdm1", "p1"),
                                                 ("rt1", "p2")])
def test_hx_interpolation_is_canonical(rng, family, nodal_family):
    """Idiv applied to a random vector nodal field equals the canonical
    interpolant of that field, evaluated pointwise."""
    mesh = build_unit_square(4)
    flux = FluxSpace(mesh, family)
    nodal = Space(mesh, nodal_family, REGION_D)
    Idiv = precond.nodal_interpolation_matrix(flux, nodal)
    z = rng.standard_normal((nodal.ndof, 2))
    gmap = -np.ones(mesh.num_triangles, dtype=int)
    gmap[nodal.tris] = np.arange(len(nodal.tris))

    def field(pts):
        loc = gmap[locate_triangles(mesh, pts, REGION_D)]
        vals = ref_basis(nodal_family, nodal.geom.pull_back(loc, pts))[0]
        return np.einsum("lp,plc->pc", vals, z[nodal.cell_dofs[loc]])

    want = flux.canonical_interpolation(field)
    assert np.abs(Idiv @ z.ravel() - want).max() \
        <= 1e-12 * np.abs(want).max()


def _one_shot_transfers(flux, nodal, potential):
    """C, Idiv and the residual of C's rotated-gradient expansion, each
    computed on every triangle of the flux space at once (the reference
    for the blockwise builders)."""
    g = potential.gradients(flux.dof_points)
    curl = np.stack([g[..., 1], -g[..., 0]], axis=-1)
    C = flux.scatter(flux.local_dofs(curl), potential.cell_dofs,
                     potential.ndof)
    v = nodal.values(flux.dof_points)
    fields = np.zeros((nodal.nloc, 2, v.shape[1], 2))
    fields[:, 0, :, 0] = fields[:, 1, :, 1] = v
    vec = VectorSpace(nodal)
    Idiv = flux.scatter(flux.local_dofs(fields.reshape(1, vec.nloc, -1, 2)),
                        vec.cell_dofs, vec.ndof)
    pts = quad.triangle_rule(3)[0]
    grads = potential.gradients(pts)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        z = rng.standard_normal(potential.ndof)
        g = np.einsum("tl,tlqc->tqc", z[potential.cell_dofs], grads)
        curl = np.stack([g[:, :, 1], -g[:, :, 0]], axis=-1)
        expansion = flux.field(C @ z, pts)[0]
        scale = max(np.abs(curl).max(), 1.0)
        worst = max(worst, np.abs(curl - expansion).max() / scale)
    return C, Idiv, worst


def _assert_identical(A, B):
    assert A.shape == B.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, attr), getattr(B, attr))


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_hx_transfers_blockwise_match_one_shot(family):
    """C, Idiv and the residual check of C, built one block of triangles
    at a time, are bitwise their one-shot values; n = 48 has 2,304 porous
    triangles, three blocks."""
    flux = FluxSpace(build_unit_square(48), family)
    assert len(flux.tris) > 2 * EVAL_ROWS
    nodal, potential = precond.hx_spaces(flux)
    C, Idiv, resid = _one_shot_transfers(flux, nodal, potential)
    _assert_identical(precond.curl_matrix(flux, potential), C)
    _assert_identical(precond.nodal_interpolation_matrix(flux, nodal), Idiv)
    assert precond.curl_representation_residual(flux, potential, C) == resid


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_hx_transfers_tabulate_one_block_at_a_time(monkeypatch, family):
    """build_hx_transfers never tabulates basis gradients or applies the
    flux functionals to more than EVAL_ROWS triangles at once, and the
    functionals cover every triangle once for C and once for Idiv."""
    flux = FluxSpace(build_unit_square(48), family)
    nodal, potential = precond.hx_spaces(flux)
    problem = SimpleNamespace(flux=flux,
                              free_flux=precond.interior_dofs(flux))
    rows = {"gradients": [], "local_dofs": []}
    for cls, name in ((Space, "gradients"), (FluxSpace, "local_dofs")):
        def recorded(self, *args, _original=getattr(cls, name),
                     _seen=rows[name], **kwargs):
            out = _original(self, *args, **kwargs)
            _seen.append(len(out))
            return out
        monkeypatch.setattr(cls, name, recorded)
    precond.build_hx_transfers(problem, nodal, potential)
    assert rows["gradients"] and max(rows["gradients"]) <= EVAL_ROWS
    assert max(rows["local_dofs"]) <= EVAL_ROWS
    assert sum(rows["local_dofs"]) == 2 * len(flux.tris)


@pytest.mark.parametrize("fam,family", [("mini", "p1"), ("th", "p2")])
def test_hx_spectral_equivalence(problem_cache, fam, family):
    conds = []
    for n in (8, 16, 32):
        pr = problem_cache(fam, n)
        op = precond.build_hx_precond(pr, n)
        conds.append(spd_condition_estimate(pr.Adiv_f, op, k=100, seed=6))
    assert conds[-1] / conds[0] <= 1.5


def test_hx_bpx_mode_spd(problem_cache, rng, monkeypatch):
    """SPD, and one apply is one stacked multilevel apply: a single coarse
    solve, on the vector nodal and the potential coarse blocks together,
    with one level and with BPX.  The stacked coarse block has
    2 (free coarse nodal DOFs) + (free coarse potential DOFs) unknowns."""
    pr = problem_cache("mini", 16)
    spaces = precond.hx_spaces(pr.flux)
    direct = precond.direct_inverse
    calls = []

    def counted(M):
        solve = direct(M)

        def apply(x):
            calls.append(x.shape)
            return solve(x)
        return LinOp(solve.n, apply)

    monkeypatch.setattr(precond, "direct_inverse", counted)
    for n_coarsest in (16, 8):
        mats, _ = precond.hx_nodal_hierarchy(*spaces, pr.params.tau,
                                             n_coarsest)
        coarse = build_unit_square(n_coarsest)
        nodal, potential = (int(np.sum(~Space(coarse, f, REGION_D)
                                       .on_boundary)) for f in ("p1", "p2"))
        assert mats[0].shape == (2 * nodal + potential,) * 2
        op = precond.build_hx_precond(pr, n_coarsest)
        calls.clear()
        op(rng.standard_normal(op.n))
        assert calls == [mats[0].shape[:1]]
        for _ in range(10):
            x = rng.standard_normal(op.n)
            assert x @ op(x) > 0


@pytest.mark.parametrize("mode", ["direct", "bpx"])
def test_hx_precond_matches_three_term_formula(problem_cache, rng,
                                               hx_reference_solves,
                                               tau4_problem, mode):
    """S^{-1} r + Idiv Linv Idiv^T r + (1/tau) C Dinv C^T r, written out
    with explicit transposes and one nodal solve per vector component;
    S = diag(Adiv_f), and Linv and Dinv come from the fresh references of
    conftest.py, for Problems at tau = 1 and at tau = 4 (tau weighs the
    flux mass in Adiv_f, the mass in L and the potential term).  'direct'
    is the one-level hierarchy (direct inverses of L and Delta), 'bpx'
    floors at n = 8."""
    n_coarsest = 16 if mode == "direct" else 8
    for pr in (problem_cache("mini", 16), tau4_problem("mini")):
        tau = pr.params.tau
        C, Idiv = precond.build_hx_transfers(pr, *precond.hx_spaces(pr.flux))
        Linv, Dinv = hx_reference_solves(pr, n_coarsest, tau)
        op = precond.build_hx_precond(pr, n_coarsest)
        for _ in range(3):
            r = rng.standard_normal(op.n)
            s = Idiv.T @ r
            y = np.empty_like(s)
            y[0::2] = Linv(s[0::2])
            y[1::2] = Linv(s[1::2])
            want = r / pr.Adiv_f.diagonal() + Idiv @ y \
                + C @ Dinv(C.T @ r) / tau
            got = op(r)
            assert np.linalg.norm(got - want) \
                <= 1e-14 * np.linalg.norm(want)
