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


def _textbook_minres(A, b, Pinv, x0, rtol, maxit):
    """The allocation-based recurrence that krylov.minres runs in place:
    every update makes new arrays.  Returns (x, iterations)."""
    x = np.zeros(len(b)) if x0 is None else np.array(x0, dtype=float)
    v_new = b - A(x) if x0 is not None else b.astype(float).copy()
    z_new = Pinv(v_new)
    gamma_new = np.sqrt(v_new @ z_new)
    tol_abs = rtol * gamma_new
    v, v_old = v_new, np.zeros(len(b))
    z = z_new
    gamma, gamma_old = gamma_new, 1.0
    eta = gamma_new
    s_prev = s_curr = 0.0
    c_prev = c_curr = 1.0
    w, w_old = np.zeros(len(b)), np.zeros(len(b))
    it = 0
    while it < maxit:
        it += 1
        zhat = z / gamma
        Az = A(zhat)
        delta = zhat @ Az
        v_new = Az - (delta / gamma) * v - (gamma / gamma_old) * v_old
        z_new = Pinv(v_new)
        gamma_new = np.sqrt(v_new @ z_new)
        a0 = c_curr * delta - c_prev * s_curr * gamma
        a1 = np.hypot(a0, gamma_new)
        a2 = s_curr * delta + c_prev * c_curr * gamma
        a3 = s_prev * gamma
        c_new = a0 / a1
        s_new = gamma_new / a1
        w_new = (zhat - a3 * w_old - a2 * w) / a1
        x += (c_new * eta) * w_new
        eta = -s_new * eta
        w_old, w = w, w_new
        v_old, v = v, v_new
        z = z_new
        gamma_old, gamma = gamma, gamma_new
        c_prev, c_curr = c_curr, c_new
        s_prev, s_curr = s_curr, s_new
        if abs(eta) <= tol_abs or gamma_new == 0.0:
            break
    return x, it


def _saddle_system(seed, n=120, m=40):
    """A symmetric indefinite saddle-point matrix, a right-hand side and
    an SPD block-diagonal preconditioner (Jacobi on the leading block, the
    exact Schur complement inverse on the trailing one), all dense.

    The two recurrences round differently.  MINRES amplifies that
    difference once its Lanczos vectors lose orthogonality, so the system
    converges in about 50 steps, well below its dimension of 160."""
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T / n + np.eye(n)
    B = rng.standard_normal((m, n)) / np.sqrt(n)
    S = np.block([[A, B.T], [B, np.zeros((m, m))]])
    Pinv = np.zeros((n + m, n + m))
    Pinv[:n, :n] = np.diag(1.0 / A.diagonal())
    Pinv[n:, n:] = np.linalg.inv(B @ np.linalg.solve(A, B.T))
    return S, rng.standard_normal(n + m), Pinv


def test_inplace_recurrence_matches_textbook():
    """Every iterate x_k, and the iteration count at a stopping rtol, equal
    the allocation-based recurrence to 1e-12 relative."""
    S, b, Pinv = _saddle_system(11)
    A, P = LinOp(len(b), lambda x: S @ x), LinOp(len(b), lambda r: Pinv @ r)
    x, st = minres(A, b, Pinv=P, rtol=1e-10, maxit=200)
    want, it = _textbook_minres(A, b, P, None, 1e-10, 200)
    assert st.converged and st.iterations == it
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    for k in range(1, it):
        x, st = minres(A, b, Pinv=P, rtol=1e-10, maxit=k)
        want, _ = _textbook_minres(A, b, P, None, 1e-10, k)
        assert st.iterations == k
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


def test_inplace_recurrence_with_aliasing_operators():
    """An operator or a preconditioner that returns its input array, the
    default preconditioner and a given x0 leave the iterates those of the
    textbook recurrence, and neither b nor x0 is changed."""
    S, b, Pinv = _saddle_system(12)
    n = len(b)
    # the symmetrically preconditioned matrix, which needs no preconditioner
    lam, V = np.linalg.eigh(Pinv)
    half = (V * np.sqrt(lam)) @ V.T
    A, P = LinOp(n, lambda x: S @ x), LinOp(n, lambda r: Pinv @ r)
    H = LinOp(n, lambda x: half @ (S @ (half @ x)))
    d = np.linspace(1.0, 5.0, n)
    D = LinOp(n, lambda x: d * x)
    same = LinOp(n, lambda x: x)
    x0 = np.random.default_rng(13).standard_normal(n)
    cases = [(H, same, None), (same, D, None), (D, same, x0), (H, None, None),
             (A, P, x0)]
    for op, pre, start in cases:
        b_in = b.copy()
        x0_in = None if start is None else start.copy()
        x, st = minres(op, b_in, Pinv=pre, x0=x0_in, rtol=1e-10, maxit=200)
        want, it = _textbook_minres(op, b, pre or LinOp(n, np.copy), start,
                                    1e-10, 200)
        assert st.converged and st.iterations == it
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(b_in, b)
        if start is not None:
            assert np.array_equal(x0_in, start)
