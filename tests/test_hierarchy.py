"""Multilevel hierarchies end at the Problem's own mesh, spaces and blocks.

The reference builders below construct every hierarchy from scratch:
fresh meshes for all levels including the finest, fresh fine spaces, and
the finest level assembled again.  The library's hierarchies reuse the
Problem's mesh, spaces and blocks instead, so their applies must agree
with the references bitwise.
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


def _ref_stokes_velocity_bpx(problem, n_coarsest):
    """Velocity BPX with fresh nodal levels up to the fine mesh and a
    freshly assembled fine velocity block on top."""
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
    return precond.build_bpx(mats, prolongs)


def _ref_hx_solves(problem, n_coarsest, tau):
    """Auxiliary-space nodal solves on fresh meshes and spaces, every
    level assembled, the fine one included, the nodal block at mass
    weight tau; one level solves directly."""
    nodal = "p1" if problem.flux.family == "bdm1" else "p2"
    meshes = _fresh_meshes(problem.n, n_coarsest)
    solves = []
    for family, matrix in (
            (nodal, lambda s: assembly.scalar_stiffness(s)
             + tau * assembly.scalar_mass(s)),
            ("p2", assembly.scalar_stiffness)):
        spaces = [Space(m, family, REGION_D) for m in meshes]
        frees = [np.where(~s.on_boundary)[0] for s in spaces]
        mats = [_restrict(matrix(s), f) for s, f in zip(spaces, frees)]
        if len(mats) == 1:
            solves.append(precond.direct_inverse(mats[0]))
            continue
        prolongs = [nodal_prolongation(spaces[i], spaces[i + 1])
                    [frees[i + 1]][:, frees[i]].tocsr()
                    for i in range(len(spaces) - 1)]
        solves.append(precond.build_bpx(mats, prolongs))
    return solves


def _assert_same_applies(op, ref, rng):
    assert op.n == ref.n
    for _ in range(3):
        x = rng.standard_normal(op.n)
        assert np.array_equal(op(x), ref(x))


@pytest.mark.parametrize("n_coarsest", [None, 2])
@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_stokes_velocity_bpx_matches_fresh_hierarchy(problem_cache, rng,
                                                     pair, n_coarsest):
    pr = problem_cache(pair, 16)
    floor = n_coarsest or solver.bpx_coarsest(16, pair == "mini")
    _assert_same_applies(solver.stokes_velocity_bpx(pr, n_coarsest),
                         _ref_stokes_velocity_bpx(pr, floor), rng)


@pytest.mark.parametrize("n_coarsest", [16, 8])
@pytest.mark.parametrize("pair", ["mini", "th"])
def test_hx_solves_match_fresh_hierarchy(problem_cache, rng, pair,
                                         n_coarsest):
    """Each nodal hierarchy applies bitwise like its fresh reference, and
    the stacked auxiliary-space operator applies, between the flux
    transfers, the block diagonal of the fresh references: the vector
    nodal solve on each component and the potential solve weighted by
    1/tau.  At tau = 4 the fine nodal block is reassembled to match."""
    pr = problem_cache(pair, 16)
    t = precond.build_hx_transfers(pr)
    free = np.where(~t.nodal.on_boundary)[0]
    for tau in (pr.params.tau, 4.0):
        t.tau = tau
        t.L = _restrict(assembly.scalar_stiffness(t.nodal)
                        + tau * assembly.scalar_mass(t.nodal), free)
        op = precond.build_hx_precond(t, n_coarsest)
        Linv, Dinv = _ref_hx_solves(pr, n_coarsest, tau)
        for levels, ref in zip(precond.hx_nodal_hierarchy(t, n_coarsest),
                               (Linv, Dinv)):
            x = rng.standard_normal(ref.n)
            assert np.array_equal(levels(x), ref(x))
        for _ in range(3):
            r = rng.standard_normal(op.n)
            s = t.Idiv.T @ r
            y = np.empty_like(s)
            y[0::2], y[1::2] = Linv(s[0::2]), Linv(s[1::2])
            want = r / t.Sdiv + t.Idiv @ y + t.C @ Dinv(t.C.T @ r) / tau
            assert np.linalg.norm(op(r) - want) \
                <= 1e-13 * np.linalg.norm(want)


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
