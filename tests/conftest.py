import contextlib
import os
from types import SimpleNamespace

# one BLAS thread, as the benchmark runs; an explicit setting still wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stokesdarcy import (PhysicalParams, Problem, ZeroCase,  # noqa: E402
                         assembly, build_unit_square, fespace, precond,
                         solver)
from stokesdarcy.fespace import (REGION_D, REGION_S, Space,  # noqa: E402
                                 nodal_prolongation)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


_cache = {}


@pytest.fixture(scope="session")
def problem_cache():
    def get(pair, n):
        if (pair, n) not in _cache:
            _cache[pair, n] = Problem(pair, n)
        return _cache[pair, n]
    return get


@pytest.fixture(scope="session")
def tau4_problem():
    """Function pair -> the Problem at n = 16 with inverse permeability
    tau = 4, and the zero case, which declares the same tau; built once
    per pair."""
    cache = {}

    def get(pair):
        if pair not in cache:
            case = ZeroCase()
            case.tau = 4.0
            cache[pair] = Problem(pair, 16, params=PhysicalParams(tau=4.0),
                                  case=case)
        return cache[pair]
    return get


@pytest.fixture(scope="session")
def mini8(problem_cache):
    return problem_cache("mini", 8)


@pytest.fixture(scope="session")
def th8(problem_cache):
    return problem_cache("th", 8)


@pytest.fixture(scope="session")
def iso8(problem_cache):
    return problem_cache("iso", 8)


@pytest.fixture(scope="session")
def full_forms():
    """Function problem -> the full-size forms a Problem keeps only as
    blocks, assembled afresh the way its constructor assembles them (so
    bitwise equal to them): the porous flux mass A_D and divergence B_D,
    the free-flow divergence B_S over all velocity DOFs (for the iso pair
    restricted from the fine pressure mesh) and its free columns B_Sf."""
    def forms(problem):
        A_D, B_D = assembly.assemble_darcy(problem.flux, problem.dpres,
                                           problem.params)[:2]
        vel, pres = problem.vel, problem.pres
        if problem.pair == "p2isop1-bdm1":
            fine_p = Space(problem.mesh, pres.family, REGION_S)
            E = nodal_prolongation(pres, fine_p)
            B_S = fespace.drop_roundoff(
                E.T @ assembly.divergence_matrix(vel, fine_p))
        else:
            B_S = assembly.divergence_matrix(vel, pres)
        return SimpleNamespace(A_D=A_D, B_D=B_D, B_S=B_S,
                               B_Sf=B_S[:, problem.free_vel].tocsr())
    return forms


@pytest.fixture
def undropped(monkeypatch):
    """Context manager under which assembly keeps every summed entry: the
    plain coo -> csr sum of the triplets, roundoff and zeros included."""
    @contextlib.contextmanager
    def plain():
        with monkeypatch.context() as m:
            for module in (fespace, solver, assembly):
                m.setattr(module, "drop_roundoff", lambda A: A.tocsr())
            yield
    return plain


@pytest.fixture(scope="session")
def hx_reference():
    """Function (problem, n_coarsest, tau) -> the reference component
    levels of the auxiliary-space nodal hierarchy, built from scratch:
    ((mats, prolongs) of the nodal block L = K + tau M, then of the
    potential block Delta = K), on fresh meshes and zero-boundary spaces
    for every level, the finest included, and every level assembled."""
    def levels(problem, n_coarsest, tau):
        nodal = "p1" if problem.flux.family == "bdm1" else "p2"
        sizes = [n_coarsest]
        while sizes[-1] < problem.n:
            sizes.append(2 * sizes[-1])
        meshes = [build_unit_square(s) for s in sizes]
        out = []
        for family, matrix in (
                (nodal, lambda s: assembly.scalar_stiffness(s)
                 + tau * assembly.scalar_mass(s)),
                ("p2", assembly.scalar_stiffness)):
            spaces = [Space(m, family, REGION_D) for m in meshes]
            frees = [np.where(~s.on_boundary)[0] for s in spaces]
            out.append(([matrix(s)[np.ix_(f, f)].tocsr()
                         for s, f in zip(spaces, frees)],
                        [nodal_prolongation(c, f)[ff][:, fc].tocsr()
                         for c, f, fc, ff in zip(spaces, spaces[1:], frees,
                                                 frees[1:])]))
        return out
    return levels


@pytest.fixture(scope="session")
def hx_reference_solves(hx_reference):
    """Function (problem, n_coarsest, tau) -> the nodal solves (Linv, Dinv)
    of the reference levels: direct inverses with one level, BPX
    otherwise."""
    def solves(problem, n_coarsest, tau):
        return [precond.direct_inverse(mats[0]) if len(mats) == 1
                else precond.build_bpx(mats, prolongs)
                for mats, prolongs in hx_reference(problem, n_coarsest, tau)]
    return solves
