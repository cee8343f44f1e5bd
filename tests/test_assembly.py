import numpy as np
import pytest

from stokesdarcy import (PAIRS, CoupledMesh, InvalidCaseError, PhysicalParams,
                         Problem, build_unit_square, canonical_pair, ftp,
                         precond, solve_coupled)
from stokesdarcy import assembly as asm
from stokesdarcy import quadrature as quad
from stokesdarcy.fespace import (DROP_RTOL, REGION_D, REGION_S, FluxSpace,
                                 Space, VectorSpace, ref_basis)
from stokesdarcy.manufactured import DarcyFields, ManufacturedCase, ZeroCase

params = PhysicalParams()


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(nu=-1)
    with pytest.raises(ValueError):
        PhysicalParams(tau=0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["nu", "kappa", "tau"])
def test_params_reject_nonfinite(name, value):
    with pytest.raises(ValueError, match="positive and finite"):
        PhysicalParams(**{name: value})


def test_stokes_symmetry(mini8):
    A = mini8.A_S
    assert abs(A - A.T).max() <= 1e-13


def test_shear_flow_energy(mini8):
    """For u = (y - 1/2, 0): 2 nu int eps:eps = nu/2 on the upper half and
    the interface friction vanishes, so the full form gives exactly 1/2."""
    vel = mini8.vel
    u = vel.interpolate(lambda p: np.column_stack(
        [p[:, 1] - 0.5, np.zeros(len(p))]))
    assert u @ (mini8.A_S @ u) == pytest.approx(0.5, abs=1e-12)


def test_constrained_velocity_block_positive():
    from stokesdarcy import Problem
    pr4 = Problem("mini", 4)
    w = np.linalg.eigvalsh(pr4.A_ff.toarray())
    assert w[0] > 0


def test_divdiv_annihilates_rotated_gradients(th8, rng):
    """Rotated gradients of a smooth scalar are divergence free, so the
    div-div form sends their interpolants to zero."""
    flux = th8.flux
    # curl of s(x, y) = x^2 y + y^3/3 is (x^2 + y^2, -2 x y)
    field = lambda p: np.column_stack([p[:, 0] ** 2 + p[:, 1] ** 2,
                                       -2 * p[:, 0] * p[:, 1]])
    c = flux.canonical_interpolation(field)
    assert np.abs(th8.D_D @ c).max() <= 1e-12


def test_constant_field_energy(mini8):
    c = mini8.flux.canonical_interpolation(
        lambda p: np.tile([0.0, 1.0], (len(p), 1)))
    assert c @ (mini8.A_D @ c) == pytest.approx(0.5, abs=1e-12)


def test_divergence_theorem_on_constrained_flux(mini8, rng):
    """Fields with vanishing normal trace on the whole porous boundary have
    zero total divergence."""
    ones = np.ones(mini8.dpres.ndof)  # the constant function
    free = np.where(~mini8.flux.on_boundary)[0]
    u = np.zeros(mini8.flux.ndof)
    u[free] = rng.standard_normal(len(free))
    assert abs(ones @ (mini8.B_D @ u)) <= 1e-12


def test_interface_projection_conforming(mini8, rng):
    """Linear normal traces are reproduced exactly by the projection."""
    vel = mini8.vel
    f = lambda p: np.column_stack([np.zeros(len(p)),
                                   -(1 + 2 * p[:, 0]) * np.ones(len(p))])
    u = vel.interpolate(f)
    phi = mini8.R @ u
    sig = mini8.mesh.interface_edges()
    # expected endpoint values of u.n = 1 + 2x, per edge
    a = mini8.mesh.vertices[sig.left, 0]
    b = a + sig.length
    want = np.empty(mini8.trace.ndim)
    want[0::2] = 1 + 2 * a
    want[1::2] = 1 + 2 * b
    assert np.abs(phi - want).max() < 1e-12


def test_interface_projection_constant(mini8):
    u = mini8.vel.interpolate(lambda p: np.column_stack(
        [np.zeros(len(p)), -np.ones(len(p))]))
    phi = mini8.R @ u
    assert np.abs(phi - 1.0).max() < 1e-12


def test_interface_projection_vs_dense_least_squares(th8):
    """Quadratic trace x(1-x) projected onto linears edge by edge, against
    an independently computed dense least-squares fit."""
    u = th8.vel.interpolate(lambda p: np.column_stack(
        [np.zeros(len(p)), -p[:, 0] * (1 - p[:, 0])]))
    phi = th8.R @ u
    sig = th8.mesh.interface_edges()
    left_x = th8.mesh.vertices[sig.left, 0]
    from scipy.special import roots_legendre
    xg, wg = roots_legendre(12)
    xg = 0.5 * (xg + 1)
    wg = 0.5 * wg
    for k in range(len(sig.edges)):
        a, L = left_x[k], sig.length[k]
        x = a + L * xg
        target = x * (1 - x)
        # least squares in L2(edge) over linears: normal equations
        basis = np.stack([1 - xg, xg])
        G = np.einsum("q,iq,jq->ij", wg, basis, basis)
        rhs = np.einsum("q,iq,q->i", wg, basis, target)
        want = np.linalg.solve(G, rhs)
        got = phi[2 * k:2 * k + 2]
        assert np.abs(got - want).max() < 1e-12


def test_zero_case_zero_loads(mini8):
    F = asm.stokes_load(mini8.vel, ZeroCase(), params)
    G = asm.darcy_load(mini8.dpres, ZeroCase())
    assert not F.any() and not G.any()


def test_load_compatibility(mini8):
    G = asm.darcy_load(mini8.dpres, ManufacturedCase())
    assert abs(G.sum()) < 1e-10


def test_incompatible_source_rejected(mini8):
    class Bad(ZeroCase):
        class darcy(ZeroCase.darcy):
            f = property(lambda self: np.ones(self.shape))
    with pytest.raises(InvalidCaseError):
        asm.darcy_load(mini8.dpres, Bad())


class ScaledSource(ManufacturedCase):
    """The manufactured case with its porous source scaled by 1e8: still
    compatible, with a quadrature total of order 1e-8."""

    class darcy(DarcyFields):
        @property
        def f(self):
            return 1e8 * super().f


@pytest.mark.parametrize("n", [8, 16, 32])
def test_scaled_compatible_source_accepted(n):
    """The compatibility rule is relative to the load's size: a source
    scaled by 1e8 passes at assembly and at the porous source solve,
    which apply the same rule; the load shifted off zero mean by 1e-9 of
    its largest entry fails."""
    pr = Problem("mini", n, case=ScaledSource())
    res = ftp.source_residual(ftp.ExactDarcySubsolver(pr), pr.G_D)
    assert np.all(np.isfinite(res.functional))
    bad = pr.G_D + 1e-9 * np.abs(pr.G_D).max() * pr.mvec / pr.mvec.sum()
    with pytest.raises(InvalidCaseError):
        asm.check_compatible(bad)


def test_scaled_source_solves():
    """The nested solve of the scaled case converges, with finite fields."""
    report = solve_coupled(Problem("mini", 8, case=ScaledSource()))
    assert report.converged
    assert all(np.all(np.isfinite(f)) for f in (report.u_S, report.p_S,
                                                report.u_D, report.p_D))


def test_quadrature_refinement_invariance(mini8, monkeypatch):
    """Doubling every family's quadrature degree changes no matrix entry."""
    vel, pres, flux, dpres = mini8.vel, mini8.pres, mini8.flux, mini8.dpres

    def build():
        return (asm.stokes_velocity_matrix(vel, params),
                asm.divergence_matrix(vel, pres),
                *asm.assemble_darcy(flux, dpres, params))

    before = build()
    monkeypatch.setattr(asm, "_QDEG",
                        {fam: 2 * deg for fam, deg in asm._QDEG.items()})
    for M1, M2 in zip(before, build()):
        assert abs(M1 - M2).max() < 1e-12


def test_deterministic_assembly(mini8):
    vel, pres = mini8.vel, mini8.pres
    for build in (lambda: asm.stokes_velocity_matrix(vel, params),
                  lambda: asm.divergence_matrix(vel, pres),
                  lambda: asm.scalar_mass(pres)):
        assert abs(build() - build()).max() == 0.0


def _interface_by_edge(space):
    """Per-edge reference of the interface tabulation: for each interface
    edge, left to right, the owning triangle's row in ``space.tris`` and
    the left and right endpoint, found by a loop over the triangles."""
    mesh = space.mesh
    tri_of_edge = {}
    for tloc, tg in enumerate(space.tris):
        for e in mesh.tri_edges[tg]:
            tri_of_edge.setdefault(e, tloc)
    out = []
    for e in mesh.interface_edges().edges:
        pa, pb = mesh.vertices[mesh.edges[e]]
        if pa[0] > pb[0]:
            pa, pb = pb, pa
        out.append((tri_of_edge[e], pa, pb))
    return out


def _edge_basis(space, tloc, pa, pb, s):
    """Physical points pa + s (pb - pa) and the basis values there, the
    reference points found by solving with the triangle's Jacobian."""
    p = space.mesh.vertices[space.mesh.triangles[space.tris[tloc]]]
    J = np.stack([p[1] - p[0], p[2] - p[0]], axis=-1)
    phys = pa[None, :] + s[:, None] * (pb - pa)[None, :]
    ref = np.linalg.solve(J, (phys - p[0]).T).T
    return phys, ref_basis(space.family, ref)[0]


class _InterfaceLoadOnly(ZeroCase):
    def g_sigma(self, x):
        x = np.asarray(x)
        return np.column_stack([np.cos(3 * x), 1 + x ** 2])


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_interface_terms_match_per_edge_reference(problem_cache, pair):
    """The mixed trace matrix, the friction block and the interface load
    against a loop over the interface edges, one edge at a time."""
    pr = problem_cache(pair, 8)
    vel, sc = pr.vel, pr.vel.scalar
    s4, w4 = quad.segment_rule(4)
    s6, w6 = quad.segment_rule(6)
    T = np.zeros((pr.trace.ndim, vel.ndof))
    K = np.zeros((vel.ndof, vel.ndof))
    F = np.zeros(vel.ndof)
    case = _InterfaceLoadOnly()
    for k, (tloc, pa, pb) in enumerate(_interface_by_edge(sc)):
        length = np.linalg.norm(pb - pa)
        dofs = 2 * sc.cell_dofs[tloc]
        _, bv = _edge_basis(sc, tloc, pa, pb, s4)
        T[np.ix_([2 * k, 2 * k + 1], dofs + 1)] -= length * np.einsum(
            "q,iq,lq->il", w4, np.stack([1 - s4, s4]), bv)
        K[np.ix_(dofs, dofs)] += length * np.einsum("q,lq,mq->lm", w4, bv, bv)
        phys, bv = _edge_basis(sc, tloc, pa, pb, s6)
        g = case.g_sigma(phys[:, 0])
        for c in range(2):
            F[dofs + c] += length * np.einsum("q,q,lq->l", w6, g[:, c], bv)
    T_SD = asm.assemble_interface(vel, pr.trace)[0]
    assert np.abs(T_SD.toarray() - T).max() <= 1e-14
    friction = (asm.stokes_velocity_matrix(vel, PhysicalParams(kappa=2.0))
                - asm.stokes_velocity_matrix(vel, PhysicalParams(kappa=1.0)))
    assert np.abs(friction.toarray() - K).max() <= 1e-14
    assert np.abs(asm.stokes_load(vel, case, params) - F).max() <= 1e-14


def test_divergence_inclusion(mini8, th8, rng):
    """The divergence of every flux field is reproduced exactly by its
    L2 projection onto the paired pressure space."""
    from stokesdarcy import quadrature as quad
    for pr in (mini8, th8):
        flux, dpres = pr.flux, pr.dpres
        pts, w = quad.triangle_rule(6)
        pvals = dpres.values(pts)
        _, divs = flux.tabulate(pts)
        c = rng.standard_normal(flux.ndof)
        dh = np.einsum("tl,tlq->tq", c[flux.cell_dofs], divs)
        nloc = pvals.shape[0]
        Mloc = np.einsum("q,lq,mq->lm", w, pvals, pvals)
        rhs = np.einsum("q,tq,lq->tl", w, dh, pvals)
        proj = np.linalg.solve(
            np.broadcast_to(Mloc, (len(flux.tris), nloc, nloc)),
            rhs[..., None])[..., 0]
        back = np.einsum("tl,lq->tq", proj, pvals)
        assert np.abs(back - dh).max() <= 1e-12 * max(np.abs(dh).max(), 1)


def _roundoff_scale(A):
    """max(largest |entry| of its row, of its column) per stored entry of
    the CSR matrix A, in storage order."""
    mag = abs(A)
    rowmax = mag.max(axis=1).toarray().ravel()
    colmax = mag.max(axis=0).toarray().ravel()
    return np.maximum(np.repeat(rowmax, np.diff(A.indptr)),
                      colmax[A.indices])


def _forms(pair):
    """The assembled forms of a pair at n = 16, the auxiliary-space
    transfers, and the nodal blocks read from the stacked auxiliary-space
    hierarchy over n = 8, 16: L and Delta of the finest level and Delta of
    the coarsest (tau = 1, so the potential block is Delta itself)."""
    pr = Problem(pair, 16)
    nodal, potential = precond.hx_spaces(pr.flux)
    C, Idiv = precond.build_hx_transfers(pr, nodal, potential)
    mats, _ = precond.hx_nodal_hierarchy(nodal, potential, pr.params.tau, 8)
    coarse = Space(build_unit_square(8), nodal.family, REGION_D)
    nvec, cvec = Idiv.shape[1], 2 * int(np.sum(~coarse.on_boundary))
    forms = {k: getattr(pr, k) for k in ("A_S", "B_S", "M_S", "A_D", "B_D",
                                         "D_D", "M_D", "R")}
    forms.update(C=C, Idiv=Idiv, L=mats[-1][:nvec:2, :nvec:2],
                 Delta=mats[-1][nvec:, nvec:],
                 coarse_Delta=mats[0][cvec:, cvec:])
    return {k: A.tocsr() for k, A in forms.items()}


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_assembled_forms_store_no_roundoff(pair, undropped):
    """No assembled matrix stores an entry at or below DROP_RTOL of its
    row/column scale; every kept entry of a scattered form is bitwise the
    plain coo -> csr sum of the same triplets, and every entry left out
    is at most DROP_RTOL of that scale.  The rule separates two groups
    far apart: a form's kept entries lie above 1e-3 of the scale and the
    dropped ones below 1e-13.  L = K + tau M and the iso pair's B_S and
    M_S (products with the pressure embedding) are combinations of such
    forms: their kept entries match the plain combination to within the
    dropped roundoff."""
    forms = _forms(pair)
    with undropped():
        plain = _forms(pair)
    combined = {"L"} | ({"B_S", "M_S"} if pair == "iso" else set())
    dropped = 0
    for name, A in forms.items():
        P = plain[name]
        assert A.shape == P.shape
        assert np.all(np.abs(A.data) > DROP_RTOL * _roundoff_scale(A)), name
        scale = _roundoff_scale(P)
        Pc = P.tocoo()
        kept = np.asarray(A[Pc.row, Pc.col]).ravel()
        stored = kept != 0
        assert stored.sum() == A.nnz, name
        if name in combined:
            assert np.all(np.abs(kept - Pc.data)[stored]
                          <= DROP_RTOL * scale[stored]), name
        else:
            assert np.array_equal(kept[stored], Pc.data[stored]), name
            assert np.all(np.abs(kept[stored]) > 1e-3 * scale[stored]), name
        assert np.all(np.abs(Pc.data[~stored])
                      <= 1e-13 * scale[~stored]), name
        dropped += P.nnz - A.nnz
    assert dropped > 0


def _jittered_mesh(n, seed):
    """The n x n mesh with every vertex off the outer boundary and off
    y = 1/2 moved by up to h/5 in each coordinate, so the Jacobians of
    all triangles but those with every vertex fixed are general."""
    base = build_unit_square(n)
    v = base.vertices.copy()
    x, y = v[:, 0], v[:, 1]
    inner = (x > 0) & (x < 1) & (y > 0) & (y < 1) & (np.abs(y - 0.5) > 1e-12)
    v[inner] += np.random.default_rng(seed).uniform(
        -0.2, 0.2, (inner.sum(), 2)) / n
    return CoupledMesh(n, v, base.triangles, base.tri_region)


def _pointwise_gradients(space, pts):
    """Physical basis gradients (nt, nloc, nq, 2) at every quadrature
    point, from an independent inverse of each Jacobian."""
    invJT = np.swapaxes(np.linalg.inv(space.geom.J), 1, 2)
    return np.einsum("tab,lqb->tlqa", invJT, ref_basis(space.family, pts)[1])


def _pointwise_forms(vel, pres, flux, dpres, p1, p2, prm, case):
    """Every form assembled from pointwise physical gradients and basis
    values, contracted per triangle and quadrature point by einsum."""
    sc = vel.scalar
    nt, nloc = len(sc.tris), sc.nloc
    out = {}

    def sq(space):
        return space.ndof, space.ndof

    def stiffness(space):
        pts, w = quad.triangle_rule(asm._QDEG[space.family])
        g = _pointwise_gradients(space, pts)
        return np.einsum("q,tlqa,tmqa,t->tlm", w, g, g, space.geom.det)

    def mass(space):
        pts, w = quad.triangle_rule(asm._QDEG[space.family])
        vals = space.values(pts)
        return asm._scatter(space.cell_dofs, space.cell_dofs, np.einsum(
            "q,lq,mq,t->tlm", w, vals, vals, space.geom.det), sq(space))

    pts, w = quad.triangle_rule(asm._QDEG[sc.family])
    g = _pointwise_gradients(sc, pts)
    cross = np.einsum("q,tlqa,tmqb,t->tlmab", w, g, g, sc.geom.det)
    locA = prm.nu * cross.transpose(0, 1, 4, 2, 3) + prm.nu \
        * stiffness(sc)[:, :, None, :, None] * np.eye(2)[:, None, :]
    sig, rows, _, sw, bv = asm._interface_values(sc, 4)
    fric = (prm.kappa * sig.length)[:, None, None] \
        * np.einsum("q,elq,emq->elm", sw, bv, bv)
    dofs = 2 * sc.cell_dofs[rows]
    out["A_S"] = asm._scatter(vel.cell_dofs, vel.cell_dofs,
                              locA.reshape(nt, 2 * nloc, 2 * nloc),
                              sq(vel)) + asm._scatter(dofs, dofs, fric,
                                                      sq(vel))

    pts, w = quad.triangle_rule(max(asm._QDEG[sc.family],
                                    asm._QDEG[pres.family]))
    pvals = pres.values(pts)
    locB = np.einsum("q,jq,tmqb,t->tjmb", w, pvals,
                     _pointwise_gradients(sc, pts), sc.geom.det)
    out["B_S"] = asm._scatter(pres.cell_dofs, vel.cell_dofs,
                              locB.reshape(nt, len(pvals), vel.nloc),
                              (pres.ndof, vel.ndof))
    out["M_S"] = mass(pres)

    pts, w = quad.triangle_rule(max(asm._QDEG[flux.family],
                                    asm._QDEG[dpres.family]))
    mono, mdiv = flux._monomials_at(flux.geom.map_points(pts))
    vals = np.einsum("tml,tmpc->tlpc", flux.coeff, mono)
    divs = np.einsum("tml,tmp->tlp", flux.coeff, mdiv) \
        / flux.hscale[:, None, None]
    det = flux.geom.det
    for name, loc in (
            ("A_D", prm.tau * np.einsum("q,tlqc,tmqc,t->tlm", w, vals, vals,
                                        det)),
            ("D_D", np.einsum("q,tlq,tmq,t->tlm", w, divs, divs, det))):
        out[name] = asm._scatter(flux.cell_dofs, flux.cell_dofs, loc,
                                 sq(flux))
    out["B_D"] = asm._scatter(dpres.cell_dofs, flux.cell_dofs, np.einsum(
        "q,jq,tmq,t->tjm", w, dpres.values(pts), divs, det),
        (dpres.ndof, flux.ndof))
    out["M_D"] = mass(dpres)
    for name, space in (("K_p1", p1), ("K_p2", p2)):
        out[name] = asm._scatter(space.cell_dofs, space.cell_dofs,
                                 stiffness(space), sq(space))

    pts, w = quad.triangle_rule(asm.LOAD_QDEG)
    f = sc.geom.evaluate(lambda X: case.stokes(X).f, pts)
    loc = np.einsum("q,t,tqc,lq->tlc", w, sc.geom.det, f, sc.values(pts))
    F = np.zeros(vel.ndof)
    np.add.at(F, 2 * sc.cell_dofs[:, :, None] + np.arange(2), loc)
    sig, rows, s, sw, bv = asm._interface_values(sc, 6)
    x = sig.points(s)[..., 0]
    gs = case.g_sigma(x.ravel()).reshape(x.shape + (2,))
    loc = sig.length[:, None, None] * np.einsum("q,eqc,elq->elc", sw, gs, bv)
    np.add.at(F, 2 * sc.cell_dofs[rows][:, :, None] + np.arange(2), loc)
    out["F_S"] = F
    return out


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_forms_match_pointwise_quadrature(pair):
    """On a mesh with general affine maps, every form assembled from the
    reference tensors (nodal families) or by batched products over
    triangles (flux families) equals the pointwise-gradient quadrature of
    the same integrand, and stores the same entries."""
    vfam, pfam, ffam, qfam = PAIRS[canonical_pair(pair)]
    mesh = _jittered_mesh(8, seed=3)
    assert mesh.geometry().det.min() > 0
    vel = VectorSpace(Space(mesh, vfam, REGION_S))
    pres = Space(mesh, pfam, REGION_S)
    flux, dpres = FluxSpace(mesh, ffam), Space(mesh, qfam, REGION_D)
    p1, p2 = Space(mesh, "p1", REGION_D), Space(mesh, "p2", REGION_D)
    prm = PhysicalParams(nu=0.7, kappa=1.3, tau=2.5)
    case = ManufacturedCase()
    got = {"A_S": asm.stokes_velocity_matrix(vel, prm),
           "B_S": asm.divergence_matrix(vel, pres),
           "M_S": asm.scalar_mass(pres),
           "K_p1": asm.scalar_stiffness(p1),
           "K_p2": asm.scalar_stiffness(p2),
           "F_S": asm.stokes_load(vel, case, params)}
    got.update(zip(("A_D", "B_D", "D_D", "M_D"),
                   asm.assemble_darcy(flux, dpres, prm)))
    want = _pointwise_forms(vel, pres, flux, dpres, p1, p2, prm, case)
    assert got.keys() == want.keys()
    for name, A in got.items():
        W = want[name]
        if name == "F_S":
            assert np.abs(A - W).max() <= 1e-14 * np.abs(W).max()
            continue
        A, W = A.tocsr(), W.tocsr()
        assert np.array_equal(A.indptr, W.indptr), name
        assert np.array_equal(A.indices, W.indices), name
        assert np.abs(A.data - W.data).max() <= 1e-14 * np.abs(W.data).max(), \
            name
