import numpy as np
import pytest
import scipy.sparse as sp

from stokesdarcy import build_unit_square, refine_uniform
from stokesdarcy import quadrature as quad
from stokesdarcy.fespace import (REGION_D, REGION_S, FluxSpace, Space,
                                 TraceSpace, VectorSpace, locate_triangles,
                                 nodal_prolongation, ref_basis,
                                 sigma_flux_maps)


@pytest.fixture(scope="module")
def mesh8():
    return build_unit_square(8)


def test_p1_barycenter():
    vals, _ = ref_basis("p1", [[1 / 3, 1 / 3]])
    assert np.allclose(vals[:, 0], 1 / 3)


def test_p2_partition_of_unity(rng):
    pts = rng.random((20, 2)) * 0.5
    vals, grads = ref_basis("p2", pts)
    assert np.allclose(vals.sum(0), 1.0)
    assert np.allclose(grads.sum(0), 0.0)


def test_bubble_value_at_barycenter():
    vals, _ = ref_basis("p1b", [[1 / 3, 1 / 3]])
    assert np.isclose(vals[3, 0], 1.0)


def test_counts_n8(mesh8):
    bdm = FluxSpace(mesh8, "bdm1")
    assert np.sum(bdm.edge_index >= 0) == 108  # Euler: 45 + 64 - 1
    assert bdm.ndof == 216
    assert FluxSpace(mesh8, "rt1").ndof == 216 + 128
    assert Space(mesh8, "p0dc", REGION_D).ndof == 64
    mini = VectorSpace(Space(mesh8, "p1b", REGION_S))
    assert mini.ndof == 218


def test_p0_mean_zero_dimension(mesh8):
    p0 = Space(mesh8, "p0dc", REGION_D)
    # one linear constraint on 64 unknowns
    from stokesdarcy.assembly import pressure_integral
    m = pressure_integral(p0)
    assert p0.ndof - 1 == 63 and m.sum() == pytest.approx(0.5)


def test_space_constructors_reject_unknown_family(mesh8):
    with pytest.raises(ValueError):
        Space(mesh8, "bdm1", REGION_S)
    with pytest.raises(ValueError):
        FluxSpace(mesh8, "p1b")
    with pytest.raises(ValueError):
        Space(mesh8, "p7", REGION_S)
    assert VectorSpace(Space(mesh8, "p2", REGION_S)).ndof == 306


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_flux_duality_against_quadrature(mesh8, family):
    """The edge moments (and the two rt1 interior moments) applied to the
    local basis fields give the identity, with the moments evaluated by
    independent quadrature."""
    fs = FluxSpace(mesh8, family)
    tloc = 11
    tg = fs.tris[tloc]
    sq, wq = quad.segment_rule(6)
    gram = np.zeros((fs.nloc, fs.nloc))
    basis = []
    for l in range(fs.nloc):
        coeffs = np.zeros(fs.ndof)
        coeffs[fs.cell_dofs[tloc, l]] = 1.0
        basis.append(coeffs)
    for k in range(3):
        e = mesh8.tri_edges[tg, k]
        a, b = mesh8.vertices[mesh8.edges[e]]
        tang = (b - a) / np.linalg.norm(b - a)
        normal = np.array([tang[1], -tang[0]])
        pts = a[None, :] + sq[:, None] * (b - a)[None, :]
        le = fs.edge_index[e]
        i1 = np.where(fs.cell_dofs[tloc] == 2 * le)[0][0]
        i2 = np.where(fs.cell_dofs[tloc] == 2 * le + 1)[0][0]
        for l, coeffs in enumerate(basis):
            un = fs.field_at(coeffs, pts[None], [tloc])[0][0] @ normal
            gram[i1, l] = np.sum(wq * (1 - sq) * un)
            gram[i2, l] = np.sum(wq * sq * un)
    if family == "rt1":
        tq, tw = quad.triangle_rule(8)
        pts = fs.geom.map_points(tq)[tloc]
        for l, coeffs in enumerate(basis):
            u = fs.field_at(coeffs, pts[None], [tloc])[0][0]
            # (1/|T|) int u = 2 * (reference-rule sum)
            gram[6:, l] = 2 * tw @ u
    assert np.allclose(gram, np.eye(fs.nloc), atol=1e-12)


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_normal_trace_single_valued(mesh8, rng, family):
    fs = FluxSpace(mesh8, family)
    c = rng.standard_normal(fs.ndof)
    adj = {}
    for tloc, tg in enumerate(fs.tris):
        for e in mesh8.tri_edges[tg]:
            adj.setdefault(e, []).append(tloc)
    sq, _ = quad.segment_rule(3)
    worst = 0.0
    for e, owners in adj.items():
        if len(owners) != 2:
            continue
        a, b = mesh8.vertices[mesh8.edges[e]]
        tang = (b - a) / np.linalg.norm(b - a)
        normal = np.array([tang[1], -tang[0]])
        pts = a[None, :] + sq[:, None] * (b - a)[None, :]
        v0 = fs.field_at(c, pts[None], [owners[0]])[0][0] @ normal
        v1 = fs.field_at(c, pts[None], [owners[1]])[0][0] @ normal
        worst = max(worst, np.abs(v0 - v1).max())
    assert worst <= 1e-12


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_interpolation_projection_property(mesh8, rng, family):
    fs = FluxSpace(mesh8, family)
    c = rng.standard_normal(fs.ndof)
    gmap = -np.ones(mesh8.num_triangles, dtype=int)
    gmap[fs.tris] = np.arange(len(fs.tris))

    def field(pts):
        tl = gmap[locate_triangles(mesh8, pts, REGION_D)]
        return fs.field_at(c, pts[:, None], tl)[0][:, 0]

    assert np.abs(fs.canonical_interpolation(field) - c).max() < 1e-10


def test_interpolation_of_constant(mesh8):
    fs = FluxSpace(mesh8, "bdm1")
    ci = fs.canonical_interpolation(
        lambda p: np.tile([1.0, 0.0], (len(p), 1)))
    pts, _ = quad.triangle_rule(2)
    vals, divs = fs.tabulate(pts)
    c = ci[fs.cell_dofs]
    field = np.einsum("tl,tlpc->tpc", c, vals)
    assert np.abs(field[..., 0] - 1).max() < 1e-12
    assert np.abs(field[..., 1]).max() < 1e-12
    assert np.abs(np.einsum("tl,tlp->tp", c, divs)).max() < 1e-11


def test_interpolation_edge_moments_quadrature_oracle(mesh8):
    """Interpolating (y^2, 0): the interpolant's edge moments must equal
    the field's, evaluated with an independent high-order rule."""
    fs = FluxSpace(mesh8, "bdm1")
    f = lambda p: np.column_stack([p[:, 1] ** 2, np.zeros(len(p))])
    ci = fs.canonical_interpolation(f)
    sq, wq = quad.segment_rule(8)
    tloc = 5
    tg = fs.tris[tloc]
    for k in range(3):
        e = mesh8.tri_edges[tg, k]
        a, b = mesh8.vertices[mesh8.edges[e]]
        tang = (b - a) / np.linalg.norm(b - a)
        normal = np.array([tang[1], -tang[0]])
        pts = a[None, :] + sq[:, None] * (b - a)[None, :]
        un_exact = f(pts) @ normal
        un_h = fs.field_at(ci, pts[None], [tloc])[0][0] @ normal
        for qw in ((1 - sq), sq):
            m_exact = np.sum(wq * qw * un_exact)
            m_h = np.sum(wq * qw * un_h)
            assert abs(m_exact - m_h) < 1e-13


def test_iso_velocity_space_is_linears_on_half_mesh():
    coarse = build_unit_square(8)
    fine = build_unit_square(16)
    vel = VectorSpace(Space(fine, "p1", REGION_S))
    assert vel.ndof == 2 * Space(fine, "p1", REGION_S).ndof
    # the fine linear space is exactly the refined coarse one
    P = nodal_prolongation(Space(coarse, "p1", REGION_S),
                           Space(fine, "p1", REGION_S))
    assert P.shape == (153, 45)


def test_constraint_classification(mesh8):
    sc = Space(mesh8, "p1", REGION_S)
    on_sigma = sc.on_boundary & ~sc.on_gamma
    on_sig = sc.nodes[on_sigma]
    assert np.allclose(on_sig[:, 1], 0.5)
    assert np.all((on_sig[:, 0] > 0) & (on_sig[:, 0] < 1))
    assert np.sum(on_sigma) == 7
    corners = np.isclose(sc.nodes[:, 0] * (1 - sc.nodes[:, 0]), 0) \
        & np.isclose(sc.nodes[:, 1], 0.5)
    assert np.all(sc.on_gamma[corners])

    fs = FluxSpace(mesh8, "bdm1")
    # two DOFs per interface edge
    assert np.sum(fs.on_boundary & ~fs.on_gamma) == 16
    assert np.sum(fs.on_gamma) == 32  # 16 outer-boundary edges


def _edge_tag_flux_masks(mesh, flux):
    """Flux masks (on_boundary, on_gamma) built from tags of the flux
    space's edges: an interface edge has both ends on y = 1/2, a Gamma_D
    edge its midpoint on the outer boundary below the midline; rt1
    interior DOFs are never constrained."""
    v = mesh.vertices[mesh.edges[np.flatnonzero(flux.edge_index >= 0)]]
    mid = 0.5 * (v[:, 0] + v[:, 1])
    sigma = (np.abs(v[:, 0, 1] - 0.5) < 1e-12) \
        & (np.abs(v[:, 1, 1] - 0.5) < 1e-12)
    outer = (np.abs(mid[:, 0]) < 1e-12) | (np.abs(mid[:, 0] - 1) < 1e-12) \
        | (np.abs(mid[:, 1]) < 1e-12) | (np.abs(mid[:, 1] - 1) < 1e-12)
    gamma = outer & (mid[:, 1] < 0.5) & ~sigma
    interior = np.zeros(flux.ndof - 2 * len(v), dtype=bool)
    on_sigma, on_gamma = (np.concatenate([np.repeat(m, 2), interior])
                          for m in (sigma, gamma))
    return on_sigma | on_gamma, on_gamma


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
@pytest.mark.parametrize("mesh", [2, 8, 64, "refined", "refined twice"])
def test_flux_masks_match_edge_tags(family, mesh):
    """The one boundary rule of every space, applied to the flux DOF
    points, gives the masks of the edge-tag construction."""
    if mesh == "refined":
        m = refine_uniform(build_unit_square(4))
    elif mesh == "refined twice":
        m = refine_uniform(refine_uniform(build_unit_square(2)))
    else:
        m = build_unit_square(mesh)
    flux = FluxSpace(m, family)
    got = (flux.on_boundary, flux.on_gamma)
    for g, want in zip(got, _edge_tag_flux_masks(m, flux)):
        np.testing.assert_array_equal(g, want)


def test_trace_space_and_lift(mesh8, rng):
    tr = TraceSpace(mesh8)
    assert tr.ndim == 16
    fs = FluxSpace(mesh8, "bdm1")
    lift, ntrace = sigma_flux_maps(fs, tr)
    phi = rng.standard_normal(tr.ndim)
    assert np.abs(ntrace @ (lift @ phi) - phi).max() < 1e-12


def test_prolongation_reproduces_polynomials():
    coarse = build_unit_square(4)
    fine = build_unit_square(8)
    for fam, f in (("p1", lambda p: 1 + 2 * p[:, 0] - p[:, 1]),
                   ("p2", lambda p: p[:, 0] * p[:, 1] + p[:, 1] ** 2)):
        cs = Space(coarse, fam, REGION_S)
        fsp = Space(fine, fam, REGION_S)
        P = nodal_prolongation(cs, fsp)
        assert np.abs(P @ cs.interpolate(f) - fsp.interpolate(f)).max() < 1e-12


def test_prolongation_into_enriched_space_needs_same_mesh():
    """Bubble coefficients are not nodal values: only the same-mesh
    embedding of linears into the enriched space is defined."""
    p1_4 = Space(build_unit_square(4), "p1", REGION_S)
    p1b_8 = Space(build_unit_square(8), "p1b", REGION_S)
    for coarse in (p1_4, Space(p1_4.mesh, "p1b", REGION_S)):
        with pytest.raises(ValueError):
            nodal_prolongation(coarse, p1b_8)
        with pytest.raises(ValueError):
            nodal_prolongation(VectorSpace(coarse), VectorSpace(p1b_8))


@pytest.mark.parametrize("fam", ["p1", "p2"])
def test_prolongation_rejects_a_mesh_it_cannot_locate_in(fam):
    """The triangle lookup assumes the numbering of build_unit_square; a
    red-refined mesh of the same size is numbered otherwise, and most
    fine nodes pull back outside the triangle found for them."""
    coarse = Space(refine_uniform(build_unit_square(4)), fam, REGION_S)
    fine = Space(build_unit_square(16), fam, REGION_S)
    with pytest.raises(ValueError, match="outside its located"):
        nodal_prolongation(coarse, fine)


def _prolongation_by_node(coarse, fine):
    """Reference construction of nodal_prolongation, one fine node at a
    time, emitting the entries in row-major order."""
    tri_of = locate_triangles(coarse.mesh, fine.nodes, coarse.region)
    gmap = -np.ones(coarse.mesh.num_triangles, dtype=int)
    gmap[coarse.tris] = np.arange(len(coarse.tris))
    loc = gmap[tri_of]
    p = coarse.mesh.vertices[coarse.mesh.triangles[coarse.tris]]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    ref = np.einsum("nab,nb->na", np.linalg.inv(J)[loc],
                    fine.nodes - p[loc, 0])
    rows, cols, vals = [], [], []
    for node in range(fine.ndof):
        bvals, _ = ref_basis(coarse.family, ref[[node]])
        for l, v in enumerate(bvals[:, 0]):
            if abs(v) > 1e-13:
                rows.append(node)
                cols.append(coarse.cell_dofs[loc[node], l])
                vals.append(v)
    return sp.coo_matrix((vals, (rows, cols)),
                         shape=(fine.ndof, coarse.ndof)).tocsr()


@pytest.mark.parametrize("region", [REGION_S, REGION_D])
@pytest.mark.parametrize("fam", ["p1", "p2"])
def test_prolongation_matches_per_node_reference(fam, region):
    cs = Space(build_unit_square(4), fam, region)
    fsp = Space(build_unit_square(8), fam, region)
    P = nodal_prolongation(cs, fsp)
    ref = _prolongation_by_node(cs, fsp)
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)
    assert np.array_equal(P.data, ref.data)


@pytest.mark.parametrize("fam", ["p1", "p2"])
def test_prolongation_drop_rule_keeps_threshold_filter(fam, undropped):
    """Up to n = 64, on both subdomains, the roundoff rule of assembly
    keeps exactly the prolongation entries above 1e-13 (the absolute
    filter it replaced), bitwise; every nodal hierarchy of the solvers
    is built from these."""
    spaces = [[Space(build_unit_square(n), fam, region) for n in
               (8, 16, 32, 64)] for region in (REGION_S, REGION_D)]
    for level in spaces:
        for coarse, fine in zip(level, level[1:]):
            P = nodal_prolongation(coarse, fine)
            with undropped():
                ref = nodal_prolongation(coarse, fine)
            ref.data[np.abs(ref.data) <= 1e-13] = 0.0
            ref.eliminate_zeros()
            assert np.array_equal(P.indptr, ref.indptr)
            assert np.array_equal(P.indices, ref.indices)
            assert np.array_equal(P.data, ref.data)


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_flux_nodes(mesh8, family):
    """FluxSpace.nodes puts both DOFs of an edge at its midpoint and both
    rt1 interior DOFs at the triangle's centroid, like Space.nodes."""
    flux = FluxSpace(mesh8, family)
    assert flux.nodes.shape == (flux.ndof, 2)
    corners = mesh8.vertices[mesh8.triangles[flux.tris]]
    for k in range(6):
        # local DOFs 2j, 2j + 1 sit on local edge j, opposite vertex j
        others = [i for i in range(3) if i != k // 2]
        want = corners[:, others].mean(axis=1)
        assert np.allclose(flux.nodes[flux.cell_dofs[:, k]], want,
                           rtol=0, atol=1e-15)
    for k in range(6, flux.nloc):
        assert np.allclose(flux.nodes[flux.cell_dofs[:, k]],
                           corners.mean(axis=1), rtol=0, atol=1e-15)


def test_vector_nodes(mesh8):
    scalar = Space(mesh8, "p2", REGION_S)
    vec = VectorSpace(scalar)
    assert np.array_equal(vec.nodes[0::2], scalar.nodes)
    assert np.array_equal(vec.nodes[1::2], scalar.nodes)


@pytest.mark.parametrize("family", ["bdm1", "rt1"])
def test_local_dofs_of_rows_match_full_call(rng, mesh8, family):
    """The flux functionals and the nodal gradients on a slice of the
    triangles equal the matching slice of the full call, for fields given
    per triangle and for fields shared by every triangle (leading axis
    1), on an inner and on a ragged last slice."""
    flux = FluxSpace(mesh8, family)
    scalar = Space(mesh8, "p2", REGION_D)
    nt, npts = len(flux.tris), len(flux.dof_points)
    for rows in (slice(5, 29), slice(40, 40 + 1024)):
        for lead in (nt, 1):
            fields = rng.standard_normal((lead, 3, npts, 2))
            part = fields[rows] if lead == nt else fields
            assert np.array_equal(flux.local_dofs(part, rows),
                                  flux.local_dofs(fields)[rows])
        assert np.array_equal(scalar.gradients(flux.dof_points, rows),
                              scalar.gradients(flux.dof_points)[rows])
