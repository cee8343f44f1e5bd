"""Multilevel hierarchies end at the Problem's own mesh, spaces and blocks.

The reference builders below, and the auxiliary-space reference in
conftest.py, construct every hierarchy from scratch: fresh meshes for all
levels including the finest, fresh fine spaces, and the finest level
assembled again.  The library's hierarchies reuse the Problem's mesh,
spaces and blocks instead, so their levels and applies must agree with
the references bitwise.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import stokesdarcy.mesh as mesh_module
from stokesdarcy import SolveConfig, assembly, precond, solve_coupled, solver
from stokesdarcy.fespace import (REGION_D, REGION_S, Space, VectorSpace,
                                 nodal_prolongation, vector_expand)
from stokesdarcy.mesh import build_unit_square


def _fresh_meshes(n, n_coarsest):
    sizes = [n_coarsest]
    while sizes[-1] < n:
        sizes.append(2 * sizes[-1])
    return [build_unit_square(s) for s in sizes]


def _restrict(M, free):
    return M[np.ix_(free, free)].tocsr()


def _ref_velocity_levels(problem, n_coarsest):
    """Velocity levels (mats, prolongs) on fresh nodal levels up to the
    fine mesh, with a freshly assembled fine velocity block on top."""
    params = problem.params
    vfam = problem.vel.scalar.family
    enriched = vfam == "p1b"
    meshes = _fresh_meshes(problem.n, n_coarsest)
    nodal = [VectorSpace(Space(m, "p1" if enriched else vfam, REGION_S))
             for m in meshes]
    frees = [np.where(~v.on_gamma)[0] for v in nodal]
    levels = nodal if enriched else nodal[:-1]
    mats = [_restrict(assembly.stokes_velocity_matrix(v, params), f)
            for v, f in zip(levels, frees)]
    fine = VectorSpace(Space(meshes[-1], vfam, REGION_S))
    free_fine = np.where(~fine.on_gamma)[0]
    mats.append(_restrict(assembly.stokes_velocity_matrix(fine, params),
                          free_fine))
    prolongs = [vector_expand(nodal_prolongation(nodal[i].scalar,
                                                 nodal[i + 1].scalar))
                [frees[i + 1]][:, frees[i]].tocsr()
                for i in range(len(nodal) - 1)]
    if enriched:
        E = sp.eye(fine.ndof, nodal[-1].ndof, format="csr")
        prolongs.append(E[free_fine][:, frees[-1]].tocsr())
    return mats, prolongs


def _ref_stokes_velocity_bpx(problem, n_coarsest):
    return precond.build_bpx(*_ref_velocity_levels(problem, n_coarsest))


def _assert_same_applies(op, ref, rng):
    assert op.n == ref.n
    for _ in range(3):
        x = rng.standard_normal(op.n)
        assert np.array_equal(op(x), ref(x))


@pytest.mark.parametrize("n_coarsest", [None, 2])
@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_stokes_velocity_bpx_matches_fresh_hierarchy(problem_cache, rng,
                                                     monkeypatch, pair,
                                                     n_coarsest):
    """The production floor, and floor 2 (all levels) set through
    solver.bpx_coarsest."""
    pr = problem_cache(pair, 16)
    floor = n_coarsest or solver.bpx_coarsest(16, pair == "mini")
    if n_coarsest:
        monkeypatch.setattr(solver, "bpx_coarsest",
                            lambda n, enriched: n_coarsest)
    _assert_same_applies(solver.stokes_velocity_bpx(pr),
                         _ref_stokes_velocity_bpx(pr, floor), rng)


@pytest.mark.parametrize("n_coarsest", [8, 2])
def test_nodal_levels_of_enriched_space(problem_cache, n_coarsest):
    """nodal_levels puts the mini velocity space on a linear level of
    every mesh, its own included, by itself: every level matrix and
    prolongation equals the fresh reference bitwise, with the finest
    block given and assembled."""
    pr = problem_cache("mini", 16)
    meshes = mesh_module.mesh_hierarchy(pr.mesh, n_coarsest)
    ref_mats, ref_prolongs = _ref_velocity_levels(pr, n_coarsest)
    for top in (pr.A_ff, None):
        mats, prolongs = precond.nodal_levels(
            meshes, pr.vel, top,
            lambda v: assembly.stokes_velocity_matrix(v, pr.params),
            lambda v: np.where(~v.on_gamma)[0])
        assert len(mats) == len(ref_mats)
        assert len(prolongs) == len(ref_prolongs)
        for A, B in zip(mats + prolongs, ref_mats + ref_prolongs):
            _assert_identical(A, B)


@pytest.mark.parametrize("n_coarsest", [16, 8])
@pytest.mark.parametrize("pair", ["mini", "th"])
def test_hx_solves_match_fresh_hierarchy(problem_cache, rng, hx_reference,
                                         hx_reference_solves, tau4_problem,
                                         pair, n_coarsest):
    """Every stacked auxiliary-space level is bitwise the block diagonal of
    the fresh references, block_diag(kron(L_l, I_2), tau Delta_l) with
    prolongations block_diag(kron(P_l, I_2), P_l), and the stacked
    operator applies, between the flux transfers, the vector nodal solve
    on each component and the potential solve weighted by 1/tau, for
    Problems at tau = 1 and at tau = 4."""
    for pr in (problem_cache(pair, 16), tau4_problem(pair)):
        tau = pr.params.tau
        nodal, potential = precond.hx_spaces(pr.flux)
        C, Idiv = precond.build_hx_transfers(pr, nodal, potential)
        mats, prolongs = precond.hx_nodal_hierarchy(nodal, potential, tau,
                                                    n_coarsest)
        (Ls, Ps), (Ds, Qs) = hx_reference(pr, n_coarsest, tau)
        assert len(mats) == len(Ls) and len(prolongs) == len(Ps)
        for M, L, D in zip(mats, Ls, Ds):
            _assert_identical(M, sp.block_diag([vector_expand(L), tau * D]))
        for P, PL, Q in zip(prolongs, Ps, Qs):
            _assert_identical(P, sp.block_diag([vector_expand(PL), Q]))
        op = precond.build_hx_precond(pr, n_coarsest)
        Linv, Dinv = hx_reference_solves(pr, n_coarsest, tau)
        S = pr.Adiv_f.diagonal()
        for _ in range(3):
            r = rng.standard_normal(op.n)
            s = Idiv.T @ r
            y = np.empty_like(s)
            y[0::2], y[1::2] = Linv(s[0::2]), Linv(s[1::2])
            want = r / S + Idiv @ y + C @ Dinv(C.T @ r) / tau
            assert np.linalg.norm(op(r) - want) \
                <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("pair,per_level", [("mini", 2), ("th", 1)])
def test_hx_hierarchy_prolongs_each_space_once(problem_cache, monkeypatch,
                                               pair, per_level):
    """An hxbpx build prolongs once per pair of consecutive levels and
    per distinct auxiliary space: twice for bdm1 (p1 nodal, p2 potential)
    and once for rt1, whose nodal space is its potential space."""
    pr = problem_cache(pair, 32)
    calls = []
    prolong = precond.nodal_prolongation

    def counted(coarse, fine):
        calls.append(fine.ndof)
        return prolong(coarse, fine)

    monkeypatch.setattr(precond, "nodal_prolongation", counted)
    solver.KINDS["hxbpx"].build(pr)
    levels = len(mesh_module.mesh_hierarchy(pr.mesh, solver.BPX_FLOOR))
    assert levels == 3
    assert len(calls) == per_level * (levels - 1)


def test_no_hierarchy_rebuilds_the_problem_mesh(problem_cache, monkeypatch):
    pr = problem_cache("mini", 16)
    sizes = []
    build = mesh_module.build_unit_square

    def counted(n):
        sizes.append(n)
        return build(n)

    monkeypatch.setattr(mesh_module, "build_unit_square", counted)
    monkeypatch.setattr(solver, "build_unit_square", counted)
    report = solve_coupled(pr, SolveConfig("mini", 16, combo="bpx:hxbpx"))
    assert report.converged
    # the velocity and the auxiliary-space hierarchies each add n = 8
    assert sizes == [8, 8]


def _assert_identical(A, B):
    A, B = sp.csr_matrix(A), sp.csr_matrix(B)
    A.sort_indices()
    B.sort_indices()
    assert A.shape == B.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, attr), getattr(B, attr))


@pytest.mark.parametrize("region", [REGION_S, REGION_D])
@pytest.mark.parametrize("family", ["p1", "p2"])
def test_vector_prolongation_is_interleaved_expansion(family, region):
    c = Space(build_unit_square(4), family, region)
    f = Space(build_unit_square(8), family, region)
    _assert_identical(nodal_prolongation(VectorSpace(c), VectorSpace(f)),
                      vector_expand(nodal_prolongation(c, f)))


def test_linears_embed_into_enriched_space():
    mesh = build_unit_square(8)
    p1, p1b = Space(mesh, "p1", REGION_S), Space(mesh, "p1b", REGION_S)
    _assert_identical(nodal_prolongation(p1, p1b),
                      sp.eye(p1b.ndof, p1.ndof, format="csr"))
    _assert_identical(nodal_prolongation(VectorSpace(p1), VectorSpace(p1b)),
                      sp.eye(2 * p1b.ndof, 2 * p1.ndof, format="csr"))
