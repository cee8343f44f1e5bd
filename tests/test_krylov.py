import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from stokesdarcy.krylov import (IndefinitePreconditioner, LinOp,
                                indefinite_condition_estimate,
                                lanczos_extremes, minres,
                                spd_condition_estimate)


def test_identity_one_iteration():
    x, st = minres(sp.eye(7, format="csr"), np.ones(7))
    assert st.iterations <= 1 and st.converged
    assert np.abs(x - 1).max() < 1e-14


def test_diagonal_finite_termination():
    A = sp.diags([1.0, 2, 3, 4, 5]).tocsr()
    b = np.ones(5)
    x, st = minres(A, b, rtol=1e-13, maxit=50)
    assert st.iterations <= 5
    assert st.residuals[-1] <= 1e-14 * st.residuals[0]
    assert np.abs(x - b / np.arange(1, 6)).max() < 1e-12


def test_indefinite_system():
    x, st = minres(sp.diags([1.0, -1.0]).tocsr(), np.array([1.0, 1.0]),
                   rtol=1e-12)
    assert st.converged
    assert np.allclose(x, [1.0, -1.0])


def test_residual_monotone_in_preconditioned_norm(rng):
    n = 40
    Q = rng.standard_normal((n, n))
    A = Q + Q.T
    b = rng.standard_normal(n)
    x, st = minres(A, b, rtol=1e-10, maxit=n + 5)
    r = np.array(st.residuals)
    assert np.all(np.diff(r) <= 1e-12 * r[0])


def test_x0_independence(rng):
    n, m = 50, 20
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    S = np.block([[A, B.T], [B, np.zeros((m, m))]])
    b = rng.standard_normal(n + m)
    Pinv = np.linalg.inv(np.block(
        [[A, np.zeros((n, m))],
         [np.zeros((m, n)), B @ np.linalg.solve(A, B.T)]]))
    P = LinOp(n + m, lambda v: Pinv @ v)
    rtol = 1e-9
    x1, _ = minres(S, b, Pinv=P, rtol=rtol, maxit=400)
    x2, _ = minres(S, b, Pinv=P, x0=rng.standard_normal(n + m), rtol=rtol,
                   maxit=400)
    assert np.linalg.norm(x1 - x2) <= 10 * rtol * np.linalg.norm(b) * 100


def test_rtol_validation():
    with pytest.raises(ValueError):
        minres(sp.eye(3, format="csr"), np.ones(3), rtol=2.0)


def test_indefinite_preconditioner_detected(rng):
    A = sp.eye(4, format="csr")
    bad = LinOp(4, lambda v: np.array([v[0], -v[1], v[2], v[3]]))
    with pytest.raises(IndefinitePreconditioner):
        minres(A, np.ones(4), Pinv=bad, rtol=1e-8)


def test_lanczos_matches_dense_spd(rng):
    n = 60
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + 3 * np.eye(n)
    d = A.diagonal()
    Pinv = LinOp(n, lambda v: v / d)
    ev = sla.eigh(A, np.diag(d), eigvals_only=True)
    lo, hi = lanczos_extremes(A, Pinv, k=n, seed=1)
    assert lo == pytest.approx(ev[0], rel=1e-8)
    assert hi == pytest.approx(ev[-1], rel=1e-8)
    k = spd_condition_estimate(A, Pinv, k=n, seed=1)
    assert k == pytest.approx(ev[-1] / ev[0], rel=1e-7)


def test_indefinite_condition_estimate(rng):
    n, m = 40, 15
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    B = rng.standard_normal((m, n))
    S = np.block([[A, B.T], [B, np.zeros((m, m))]])
    P = np.block([[A, np.zeros((n, m))],
                  [np.zeros((m, n)), B @ np.linalg.solve(A, B.T)]])
    Pinv = np.linalg.inv(P)
    est = indefinite_condition_estimate(S, LinOp(n + m, lambda v: Pinv @ v),
                                        k=(n + m))
    ev = sla.eig(Pinv @ S, right=False).real
    want = np.abs(ev).max() / np.abs(ev).min()
    assert est == pytest.approx(want, rel=1e-6)


def test_symmetry_probe(rng):
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    ok, err = LinOp(3, lambda v: A @ v).check_symmetry(rng)
    assert ok and err < 1e-14
