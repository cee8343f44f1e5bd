import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokesdarcy import (Problem, SolveConfig, ftp, precond, solve_coupled,
                         solve_monolithic_oracle)
from stokesdarcy.manufactured import ZeroCase
from stokesdarcy.solver import (_outer_operator, canonical_pair,
                                estimate_infsup, infsup_stokes,
                                outer_preconditioner, parse_combo)


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_pair_aliases():
    assert canonical_pair("MINI") == "mini-bdm1"
    assert canonical_pair("th") == "taylorhood-rt1"
    with pytest.raises(ValueError):
        canonical_pair("q2q1")


def test_combo_parsing():
    assert parse_combo("direct:pd0") == ("direct", "pd0")
    assert parse_combo("BPX:HX") == ("bpx", "hx")
    for bad in ("direct", "direct:lu", "ilu:pd0"):
        with pytest.raises(ValueError):
            parse_combo(bad)


def test_config_validates_combo_pairs():
    """A combo given as a pair follows the rule of the 'outer:inner' name:
    normalised to lowercase, and rejected when a kind is unknown; a combo
    that is neither a name nor a pair raises the same ValueError."""
    assert SolveConfig("mini", 8, combo=("DIRECT", " pd0")).combo \
        == ("direct", "pd0")
    assert SolveConfig("mini", 8, combo=["bpx", "HXBPX"]).combo \
        == ("bpx", "hxbpx")
    for bad in (("dirct", "pd0"), ("direct", "lu"), ("direct",),
                ("direct", "pd0", "hx"), ("direct", 0), None, 5):
        with pytest.raises(ValueError):
            SolveConfig("mini", 8, combo=bad)


@pytest.mark.parametrize("key,value", [
    ("outer_rtol", 0.0), ("outer_rtol", -1.0), ("outer_rtol", 1.0),
    ("outer_rtol", float("nan")), ("inner_rtol", 0.0), ("inner_rtol", 2.0),
    ("inner_rtol", float("nan")), ("maxit_inner", 0)])
def test_config_rejects_out_of_range_settings(key, value):
    with pytest.raises(ValueError, match=key):
        SolveConfig("mini", 8, **{key: value})


def test_recovery_tolerance_is_derived():
    """Source and recovery solves run at 1e-8, or at the inner tolerance
    where that is tighter."""
    assert SolveConfig("mini", 8).recovery_rtol == 1e-8
    assert SolveConfig("mini", 8, inner_rtol=1e-12).recovery_rtol == 1e-12


def test_solve_rejects_config_of_another_problem(mini8):
    """Pair and mesh size come from the Problem; a config naming others
    is refused before any solve."""
    for config in (SolveConfig("th", 8), SolveConfig("mini", 16),
                   SolveConfig("th", 64)):
        with pytest.raises(ValueError):
            solve_coupled(mini8, config)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem("mini", 7)
    with pytest.raises(ValueError):
        Problem("iso", 10)  # pressure mesh needs n divisible by 4


def test_dof_totals(mini8, iso8, th8):
    assert mini8.dof_total == 543
    assert iso8.dof_total == 385
    assert th8.dof_total == 887


def test_oracle_system_properties(mini8):
    rep = solve_monolithic_oracle(mini8)
    # second block row of the coupled system: (div u, q) = (f, q)
    resid = mini8.B_D @ rep.u_D - mini8.G_D
    m = mini8.mvec
    resid -= m * (m @ resid) / (m @ m)
    assert np.abs(resid).max() <= 1e-10 * max(np.abs(mini8.G_D).max(), 1)
    # porous pressure is mean zero
    assert abs(m @ rep.p_D) <= 1e-12


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_nested_matches_monolithic(problem_cache, pair):
    pr = problem_cache(pair, 8)
    mono = solve_monolithic_oracle(pr)
    cfg = SolveConfig(pair, 8, outer_rtol=1e-10, inner_rtol=1e-12,
                      maxit_inner=5000)
    nested = solve_coupled(pr, cfg)
    assert nested.converged
    assert rel(nested.u_S, mono.u_S) <= 1e-6
    assert rel(nested.p_S, mono.p_S) <= 1e-6
    assert rel(nested.u_D, mono.u_D) <= 1e-6
    assert rel(nested.p_D, mono.p_D) <= 1e-6


def test_zero_case_zero_solution():
    pr = Problem("mini", 4, case=ZeroCase())
    rep = solve_coupled(pr, SolveConfig("mini", 4))
    assert rep.outer_iterations <= 1
    assert np.abs(rep.u_S).max() <= 1e-14
    assert np.abs(rep.p_D).max() <= 1e-14


def test_taylor_hood_iteration_counts(problem_cache):
    """Reported counts for the quadratic pair at h = 1/16: 34 outer with
    5 mean inner sweeps."""
    pr = problem_cache("th", 16)
    rep = solve_coupled(pr, SolveConfig("th", 16))
    assert abs(rep.outer_iterations - 34) <= 5
    assert abs(rep.mean_inner - 5) <= 2


def test_mass_conservation_across_interface(problem_cache):
    """The porous normal trace equals the projected free-flow trace
    DOF-exactly, for every trace-space test function."""
    pr = problem_cache("mini", 8)
    rep = solve_coupled(pr, SolveConfig("mini", 8))
    got = pr.ntrace @ rep.u_D
    want = pr.R_f @ rep.u_S[pr.free_vel]
    Q = sp.block_diag(pr.trace.mass_blocks())
    assert np.abs(Q @ (got - want)).max() <= 1e-10


def test_splitting_matches_monolithic_fields(problem_cache):
    """The recovered porous fields from the residual splitting agree with
    the monolithic ones once the outer iteration is converged tightly."""
    pr = problem_cache("iso", 8)
    mono = solve_monolithic_oracle(pr)
    nested = solve_coupled(pr, SolveConfig("iso", 8, outer_rtol=1e-11,
                                           inner_rtol=1e-12,
                                           maxit_inner=5000))
    assert rel(nested.u_D, mono.u_D) <= 1e-7
    assert rel(nested.p_D, mono.p_D) <= 1e-7


def test_infsup_levels():
    for pair, lo in (("mini", 0.8), ("th", 0.8)):
        betas = [estimate_infsup(pair, n)["beta_S"] for n in (4, 8, 16)]
        assert min(betas) / max(betas) >= lo
        assert min(betas) > 0.1
    bD = [estimate_infsup("mini", n)["beta_D"] for n in (4, 8, 16)]
    assert min(bD) / max(bD) >= 0.8


def test_infsup_negative_control():
    """Equal-order linear velocity/pressure is unstable: the smallest
    nonzero singular value decays under refinement."""
    from stokesdarcy.mesh import build_unit_square
    betas = [infsup_stokes(build_unit_square(n), "p1", "p1")
             for n in (4, 8, 16)]
    assert betas[2] <= betas[0] / 2


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_saddle_matrices_match_blocks(problem_cache, rng, pair):
    """K_S and K_D are the raw blocks assembled into one matrix, and the
    operators that apply them match the three-product formulas they
    replace; the exact subsolver matches a KKT solve of the raw blocks."""
    pr = problem_cache(pair, 8)
    free = pr.free_flux
    A_ff, B = pr.A_ff, pr.B_Sf
    Aii = pr.A_D[np.ix_(free, free)].tocsr()
    Bi = pr.B_D[:, free].tocsr()
    K_S = sp.bmat([[A_ff, -B.T], [-B, None]], format="csr")
    K_D = sp.bmat([[Aii, -Bi.T], [-Bi, None]], format="csr")
    assert (pr.K_S != K_S).nnz == 0 and pr.K_S.shape == K_S.shape
    assert (pr.K_D != K_D).nnz == 0 and pr.K_D.shape == K_D.shape

    nf, ni, m = len(pr.free_vel), len(free), pr.mvec
    outer = _outer_operator(pr, None)
    sub = ftp.DarcySubsolver(pr, precond.direct_inverse(pr.Adiv_f))
    inner = sub.operator()
    for _ in range(3):
        x = rng.standard_normal(outer.n)
        u, p = x[:nf], x[nf:]
        want = np.concatenate([A_ff @ u - B.T @ p, -(B @ u)])
        assert rel(outer(x), want) <= 1e-14
        y = rng.standard_normal(inner.n)
        u, p = y[:ni], y[ni:]
        q = Bi @ u
        want = np.concatenate([Aii @ u - Bi.T @ p,
                               -(q - m * ((m @ q) / (m @ m)))])
        assert rel(inner(y), want) <= 1e-14

    exact = ftp.ExactDarcySubsolver(pr)
    phi = rng.standard_normal(pr.trace.ndim)
    res = exact.solve_lifted(phi)
    ul = pr.lift @ phi
    col = sp.csc_matrix(m[:, None])
    kkt = sp.bmat([[Aii, -Bi.T, None], [-Bi, None, col],
                   [None, col.T, None]], format="csc")
    rhs = np.concatenate([-(pr.A_D @ ul)[free], pr.B_D @ ul, [0.0]])
    sol = spla.spsolve(kkt, rhs)
    u = ul.copy()
    u[free] += sol[:ni]
    p = sol[ni:-1]
    functional = pr.lift.T @ (pr.A_D @ u - pr.B_D.T @ p)
    assert rel(res.u, u) <= 1e-12
    assert rel(res.p, p) <= 1e-12
    assert rel(res.functional, functional) <= 1e-12


def test_true_residual_matches_exact_coupling(problem_cache):
    """The reported true residual equals ||b - A x||_P / ||b||_P with the
    porous solves of b and A done by the factorized subsolver; the outer
    recurrence's own residual is far smaller."""
    pr = problem_cache("mini", 16)
    cfg = SolveConfig("mini", 16, combo="direct:pd0")
    rep = solve_coupled(pr, cfg)
    exact = ftp.ExactDarcySubsolver(pr)
    gamma = ftp.source_residual(exact, pr.G_D)
    fv = pr.free_vel
    b = np.concatenate([pr.F_S[fv] - pr.R_f.T @ gamma.functional,
                        np.zeros(pr.pres.ndof)])
    A = _outer_operator(pr, ftp.CouplingOperator(pr.R_f, exact))
    P = outer_preconditioner(pr, cfg)
    r = b - A(np.concatenate([rep.u_S[fv], rep.p_S]))
    want = np.sqrt((r @ P(r)) / (b @ P(b)))
    assert rep.true_residual == pytest.approx(want, rel=1e-4)
    assert rep.true_residual > 100 * rep.residuals[-1] / rep.residuals[0]


@pytest.mark.parametrize("pair,combo", [("mini", "direct:pd0"),
                                        ("th", "bpx:pd0"),
                                        ("iso", "bpx:hxbpx")])
def test_true_residual_reuses_warm_start_norm(problem_cache, monkeypatch,
                                              pair, combo):
    """true_residual divides by the warm start's first residual, and so
    equals bitwise the formula that applies the outer preconditioner to
    the right-hand side once more."""
    from stokesdarcy import solver
    from stokesdarcy.krylov import minres
    solves, porous = [], []
    coupling_solve = ftp.CouplingOperator.solve

    def recording_minres(A, b, **kw):
        x, stats = minres(A, b, **kw)
        solves.append((b, kw["Pinv"], x))
        return x, stats

    def recording_solve(self, u, rtol=None):
        result = coupling_solve(self, u, rtol)
        porous.append((self, result))
        return result

    monkeypatch.setattr(solver, "minres", recording_minres)
    monkeypatch.setattr(ftp.CouplingOperator, "solve", recording_solve)
    pr = problem_cache(pair, 16)
    rep = solve_coupled(pr, SolveConfig(pair, 16, combo=combo))
    (rhs, P, _), (_, _, x) = solves
    # the last porous solve is the recovery
    coupling, recovery = porous[-1]
    r = rhs - _outer_operator(pr, None)(x)
    r[:len(pr.free_vel)] -= coupling.RT @ recovery.functional
    want = np.sqrt(max(r @ P(r), 0.0)) / max(np.sqrt(rhs @ P(rhs)), 1e-300)
    assert rep.true_residual == want
