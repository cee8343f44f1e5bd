import numpy as np
import pytest

from stokesdarcy import build_unit_square, refine_uniform
from stokesdarcy.mesh import REF_VERTICES, mesh_hierarchy


def test_counts_n2():
    m = build_unit_square(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8
    assert len(m.interface_edges().edges) == 2


def test_counts_n8():
    m = build_unit_square(8)
    assert m.num_vertices == 81
    assert m.num_triangles == 128
    assert len(m.interface_edges().edges) == 8


def test_sigma_edges_on_midline():
    m = build_unit_square(8)
    for e in m.interface_edges().edges:
        assert np.allclose(m.vertices[m.edges[e], 1], 0.5)


@pytest.mark.parametrize("bad", [1, 3, 0, -2, 7])
def test_odd_or_small_n_rejected(bad):
    with pytest.raises(ValueError):
        build_unit_square(bad)


def test_positive_areas_and_halves():
    for n in (2, 4, 8, 16):
        m = build_unit_square(n)
        a = 0.5 * m.geometry().det
        assert np.all(a > 0)
        assert abs(a[m.tri_region == 0].sum() - 0.5) < 1e-14
        assert abs(a[m.tri_region == 1].sum() - 0.5) < 1e-14


def test_sigma_edge_between_both_regions():
    m = build_unit_square(8)
    for e in m.interface_edges().edges:
        owners = np.where(np.any(m.tri_edges == e, axis=1))[0]
        assert sorted(m.tri_region[owners]) == [0, 1]


def test_refine_counts_and_h():
    m = build_unit_square(2)
    r = refine_uniform(m)
    assert r.num_triangles == 32
    assert r.h == m.h / 2


def test_refined_mesh_invariants():
    r = refine_uniform(build_unit_square(4))
    a = 0.5 * r.geometry().det
    assert np.all(a > 0)
    assert abs(a[r.tri_region == 1].sum() - 0.5) < 1e-14
    sigma = r.interface_edges().edges
    assert len(sigma) == 8
    for e in sigma:
        assert np.allclose(r.vertices[r.edges[e], 1], 0.5)


def test_twice_refined_matches_direct_build():
    rr = refine_uniform(refine_uniform(build_unit_square(8)))
    direct = build_unit_square(32)
    got = set(map(tuple, np.round(rr.vertices, 12)))
    want = set(map(tuple, np.round(direct.vertices, 12)))
    assert got == want


def test_interface_trace():
    """The interface edge map: left and right endpoints, lengths, edges
    ordered left to right."""
    m = build_unit_square(8)
    sig = m.interface_edges()
    assert len(sig.left) == 8
    lengths = np.linalg.norm(m.vertices[sig.right] - m.vertices[sig.left],
                             axis=1)
    assert np.allclose(lengths, 1 / 8)
    np.testing.assert_array_equal(sig.length, lengths)
    assert abs(lengths.sum() - 1.0) < 1e-14
    # left endpoint first, ordered left to right
    xs = m.vertices[sig.left, 0]
    assert np.all(np.diff(xs) > 0)


def test_interface_trace_on_refined_mesh():
    r = refine_uniform(build_unit_square(4))
    sig = r.interface_edges()
    assert len(sig.left) == 8
    assert np.all(r.vertices[sig.left, 0] < r.vertices[sig.right, 0])


def test_euler_relation_per_subdomain():
    m = build_unit_square(8)
    for region in (0, 1):
        tris = m.region_triangles(region)
        v = len(np.unique(m.triangles[tris]))
        e = len(np.unique(m.tri_edges[tris]))
        assert v - e + len(tris) == 1


def test_edge_signs_pure_function_of_indices():
    m = build_unit_square(4)
    s = m.edge_signs()
    t = m.triangles
    assert np.array_equal(s[:, 0], np.where(t[:, 1] < t[:, 2], 1, -1))
    # each triangle is counterclockwise, so the three signs cannot agree
    assert np.all(np.abs(s.sum(axis=1)) <= 1)


def test_hierarchy_nested_sizes():
    """Halving stops at n_coarsest or where the next level would be odd."""
    for (n, n_coarsest), sizes in {
            (16, 2): [2, 4, 8, 16], (12, 2): [6, 12],
            (96, 8): [6, 12, 24, 48, 96], (10, 8): [10], (6, 3): [6],
            (8, 4): [4, 8], (8, 8): [8]}.items():
        hier = mesh_hierarchy(build_unit_square(n), n_coarsest)
        assert [m.n for m in hier] == sizes


@pytest.mark.parametrize("region", [None, 0, 1])
def test_affine_geometry(region):
    m = refine_uniform(build_unit_square(4))
    g = m.geometry(region)
    assert g is m.geometry(region)  # cached per region
    tris = (np.arange(m.num_triangles) if region is None
            else m.region_triangles(region))
    areas = 0.5 * m.geometry().det[tris]
    assert np.array_equal(g.det, 2 * areas)
    assert np.allclose(areas, 0.5 / 64, rtol=1e-14, atol=0)
    corners = m.vertices[m.triangles[tris]]
    assert np.allclose(g.map_points(REF_VERTICES), corners, rtol=0,
                       atol=1e-15)
    assert np.allclose(np.einsum("tba,tbc->tac", g.invJT, g.J),
                       np.eye(2), rtol=0, atol=1e-14)
    rows = np.arange(len(tris))
    ref = np.full((len(rows), 2), 1 / 3)
    assert np.allclose(g.pull_back(rows, corners.mean(axis=1)), ref,
                       rtol=0, atol=1e-14)


def test_interface_edge_map():
    m = refine_uniform(build_unit_square(4))
    sig = m.interface_edges()
    # exactly the edges with both endpoints on the midline
    on_midline = np.all(m.vertices[m.edges, 1] == 0.5, axis=1)
    assert np.array_equal(np.sort(sig.edges), np.flatnonzero(on_midline))
    xl, xr = m.vertices[sig.left], m.vertices[sig.right]
    assert np.all(xl[:, 0] < xr[:, 0]) and np.all(np.diff(xl[:, 0]) > 0)
    assert np.allclose(sig.length, 1 / 8)
    s = np.array([0.0, 0.3, 1.0])
    for r in (0, 1):
        assert np.all(m.tri_region[sig.tri[:, r]] == r)
        assert np.array_equal(m.region_triangles(r)[sig.row[:, r]],
                              sig.tri[:, r])
        assert np.all(np.any(m.tri_edges[sig.tri[:, r]]
                             == sig.edges[:, None], axis=1))
        # reference points map to the physical ones in the owner
        g = m.geometry(r)
        phys = np.einsum("eab,eqb->eqa", g.J[sig.row[:, r]],
                         sig.ref_points(r, s)) + g.origin[sig.row[:, r], None]
        assert np.allclose(phys, sig.points(s), rtol=0, atol=1e-15)


def _is_permutation(order, n):
    return np.array_equal(np.sort(order), np.arange(n))


def test_dissection_is_a_permutation():
    """The nested-dissection order is a permutation of the points'
    indices on any point set: mesh nodes, repeated nodes, points off the
    grid lines, a refined mesh, one point and none."""
    m = build_unit_square(8)
    rng = np.random.default_rng(3)
    v = m.vertices
    for pts in (v, np.repeat(v, 2, axis=0), rng.random((500, 2)),
                rng.random((40, 2)) * [1.0, 0.5], v[:1], v[:0]):
        order = m.dissection(pts)
        assert _is_permutation(order, len(pts))
        assert np.array_equal(m.dissection(pts), order)  # deterministic
    r = refine_uniform(build_unit_square(4))
    assert _is_permutation(r.dissection(r.vertices), r.num_vertices)


def test_dissection_post_order():
    """On the n = 4 vertices the box [0, 4]^2 is cut at x = 2, then each
    half [0, 2] x [0, 4] at y = 2: the left half, the right half, then
    the top separator; cells keep the input order."""
    m = build_unit_square(4)
    g = m.vertices[m.dissection(m.vertices)] * 4
    assert np.array_equal(g[-5:, 0], np.full(5, 2.0))
    assert np.array_equal(g[-5:, 1], np.arange(5.0))
    assert np.all(g[:10, 0] < 2) and np.all(g[10:20, 0] > 2)
    # left half: the lower cell column x in [0, 1], y in [0, 1] first, and
    # its separator y = 2 after both quarters
    assert np.array_equal(g[:4], [[0, 0], [0, 1], [1, 0], [1, 1]])
    assert np.array_equal(g[8:10], [[0, 2], [1, 2]])


@pytest.fixture
def mesh(request):
    """A unit-square mesh at n = request.param, or the red refinement
    of the n = 8 one."""
    if request.param == "refined":
        return refine_uniform(build_unit_square(8))
    return build_unit_square(request.param)


def _sorted_pair_edges(mesh):
    """Edges and triangle-to-edge map by unique rows of the sorted vertex
    pairs: the construction the integer keys replace."""
    t = mesh.triangles
    pairs = np.sort(np.concatenate([t[:, [1, 2]], t[:, [2, 0]],
                                    t[:, [0, 1]]]), axis=1)
    edges, inv = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inv.reshape(3, -1).T


@pytest.mark.parametrize("mesh", [2, 8, 64, "refined"], indirect=True)
def test_topology_matches_sorted_pair_construction(mesh):
    """Edges, tri_edges and every region's vertices and edges equal the
    unique-rows construction, dtype included."""
    from stokesdarcy.fespace import _region_entities
    edges, tri_edges = _sorted_pair_edges(mesh)
    for got, want in ((mesh.edges, edges), (mesh.tri_edges, tri_edges)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for region in (0, 1):
        tris, vids, eids = _region_entities(mesh, region)
        for got, want in ((vids, np.unique(mesh.triangles[tris])),
                          (eids, np.unique(tri_edges[tris]))):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
