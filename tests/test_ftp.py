import numpy as np
import pytest

from stokesdarcy import InvalidCaseError
from stokesdarcy import assembly as asm
from stokesdarcy import ftp, precond
from stokesdarcy.manufactured import ManufacturedCase


@pytest.fixture(scope="module")
def exact_sub(mini8):
    return ftp.ExactDarcySubsolver(mini8)


def test_zero_datum(exact_sub):
    res = exact_sub.solve_lifted(np.zeros(16))
    assert not res.functional.any()
    assert not res.u.any() and not res.p.any()


def test_symmetry(exact_sub, rng):
    worst = 0.0
    for _ in range(10):
        phi = rng.standard_normal(16)
        psi = rng.standard_normal(16)
        a = psi @ exact_sub.solve_lifted(phi).functional
        b = phi @ exact_sub.solve_lifted(psi).functional
        worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    assert worst <= 1e-10


def test_nonnegativity(exact_sub, rng):
    for _ in range(10):
        phi = rng.standard_normal(16)
        assert phi @ exact_sub.solve_lifted(phi).functional >= -1e-12


def test_energy_identity(exact_sub, mini8, rng):
    """<F(phi), phi> equals the weighted mass energy of the lifted field."""
    phi = rng.standard_normal(16)
    res = exact_sub.solve_lifted(phi)
    energy = res.u @ (mini8.A_D @ res.u)
    assert phi @ res.functional == pytest.approx(energy, rel=1e-10)


def test_linearity(exact_sub, rng):
    phi = rng.standard_normal(16)
    psi = rng.standard_normal(16)
    combo = exact_sub.solve_lifted(2.0 * phi - 0.5 * psi).functional
    parts = 2.0 * exact_sub.solve_lifted(phi).functional \
        - 0.5 * exact_sub.solve_lifted(psi).functional
    assert np.abs(combo - parts).max() <= 1e-10 * np.abs(parts).max()


def test_prescribed_trace(exact_sub, mini8, rng):
    phi = rng.standard_normal(16)
    res = exact_sub.solve_lifted(phi)
    got = mini8.ntrace @ res.u
    assert np.abs(got - phi).max() <= 1e-12


def test_source_zero(exact_sub):
    res = ftp.source_residual(exact_sub, np.zeros(exact_sub.problem.dpres.ndof))
    assert not res.functional.any()


def test_source_discrete_equations(mini8):
    """The source solve satisfies its divergence constraint: (div u, q)
    equals (f, q) for every zero-mean pressure test function."""
    sub = ftp.ExactDarcySubsolver(mini8)
    G = asm.darcy_load(mini8.dpres, ManufacturedCase())
    res = ftp.source_residual(sub, G)
    resid = mini8.B_D @ res.u - G
    m = mini8.mvec
    resid = resid - m * (m @ resid) / (m @ m)
    assert np.abs(resid).max() <= 1e-10 * np.abs(G).max()


def test_incompatible_source_rejected(exact_sub):
    with pytest.raises(InvalidCaseError):
        ftp.source_residual(exact_sub, np.ones(exact_sub.problem.dpres.ndof))


def test_coupling_kills_tangential_fields(mini8, rng):
    sub = ftp.ExactDarcySubsolver(mini8)
    C = ftp.CouplingOperator(mini8.R_f, sub)
    u = np.zeros(len(mini8.free_vel))
    # fields with zero vertical component have zero normal trace
    vert = mini8.free_vel % 2 == 1
    u[~vert] = rng.standard_normal(np.sum(~vert))
    out = C(u)
    assert np.abs(out).max() <= 1e-12


def test_coupling_symmetry_tight(mini8):
    sub = ftp.DarcySubsolver(mini8, precond.direct_inverse(mini8.Adiv_f),
                             rtol=1e-10, maxit=4000)
    C = ftp.CouplingOperator(mini8.R_f, sub)
    local = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        u = local.standard_normal(len(mini8.free_vel))
        v = local.standard_normal(len(mini8.free_vel))
        a, b = v @ C(u), u @ C(v)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    assert worst <= 1e-8


def test_coupling_psd(mini8, rng):
    sub = ftp.ExactDarcySubsolver(mini8)
    C = ftp.CouplingOperator(mini8.R_f, sub)
    for _ in range(10):
        u = rng.standard_normal(len(mini8.free_vel))
        assert u @ C(u) >= -1e-12


def test_one_solve_per_application(mini8, rng):
    sub = ftp.ExactDarcySubsolver(mini8)
    C = ftp.CouplingOperator(mini8.R_f, sub)
    before = len(sub.iteration_log)
    for k in range(5):
        C(rng.standard_normal(len(mini8.free_vel)))
    assert len(sub.iteration_log) - before == 5


def test_iterative_solver_failure_flagged(mini8, rng):
    sub = ftp.DarcySubsolver(mini8, precond.direct_inverse(mini8.Adiv_f),
                             rtol=1e-12, maxit=2)
    with pytest.raises(ftp.SolverFailure) as info:
        sub.solve_lifted(rng.standard_normal(16))
    assert info.value.stats is not None


def test_coupling_solve_is_solve_lifted_of_the_trace(mini8, rng):
    """CouplingOperator.solve(u, rtol) is the lifted porous solve of the
    interface data R_f u at rtol, bitwise, and one coupling apply is R_f^T
    of its functional at the subsolver's own tolerance."""
    sub = ftp.DarcySubsolver(mini8, precond.direct_inverse(mini8.Adiv_f))
    C = ftp.CouplingOperator(mini8.R_f, sub)
    u = rng.standard_normal(len(mini8.free_vel))
    got = C.solve(u, 1e-8)
    want = sub.solve_lifted(mini8.R_f @ u, 1e-8)
    for a, b in ((got.functional, want.functional), (got.u, want.u),
                 (got.p, want.p)):
        assert np.array_equal(a, b)
    assert got.stats.iterations == want.stats.iterations
    loose = C.solve(u)
    assert loose.stats.iterations < got.stats.iterations
    assert np.array_equal(C(u), mini8.R_f.T @ loose.functional)


@pytest.mark.parametrize("exact", [False, True], ids=["minres", "exact"])
def test_solve_lifted_returns_the_result_record(mini8, exact):
    """solve_lifted returns one FtpResult: its [2] is its stats (the last
    logged inner count for MINRES, None for the factorized solve) and its
    functional is functional(u, p) bitwise; source_residual returns the
    same record."""
    sub = ftp.ExactDarcySubsolver(mini8) if exact else ftp.DarcySubsolver(
        mini8, precond.direct_inverse(mini8.Adiv_f))
    phi = np.random.default_rng(7).standard_normal(mini8.trace.ndim)
    res = sub.solve_lifted(phi)
    assert type(res) is ftp.FtpResult
    assert res[2] is res.stats
    if exact:
        assert res.stats is None
    else:
        assert res[2].iterations == sub.iteration_log[-1]
    assert np.array_equal(res.functional, sub.functional(res.u, res.p))
    src = ftp.source_residual(sub, mini8.G_D)
    assert type(src) is ftp.FtpResult
    assert np.array_equal(src.functional, sub.functional(src.u, src.p))
