"""Preconditioned MINRES and Lanczos spectral estimation."""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, dscal


class IndefinitePreconditioner(RuntimeError):
    """The preconditioner produced a nonpositive inner product."""


class LinOp:
    """Linear operator handle: dimension, apply callback, symmetry flag."""

    def __init__(self, n, apply, symmetric=True):
        self.n = n
        self._apply = apply
        self.symmetric = symmetric

    def __call__(self, x):
        return self._apply(x)

    def check_symmetry(self, rng=None, probes=3, tol=1e-10):
        """Probe |<Ax,y> - <x,Ay>| on random vectors (debug aid)."""
        rng = rng or np.random.default_rng(0)
        worst = 0.0
        for _ in range(probes):
            x = rng.standard_normal(self.n)
            y = rng.standard_normal(self.n)
            ax, ay = self(x), self(y)
            scale = max(1.0, np.linalg.norm(ax) * np.linalg.norm(y))
            worst = max(worst, abs(ax @ y - x @ ay) / scale)
        return worst <= tol, worst


def aslinop(A):
    if isinstance(A, LinOp):
        return A
    if sp.issparse(A):
        return LinOp(A.shape[0], lambda x, A=A.tocsr(): A @ x)
    if isinstance(A, np.ndarray):
        return LinOp(A.shape[0], lambda x, A=A: A @ x)
    raise TypeError("cannot wrap %r as a linear operator" % type(A))


def identity_op(n):
    return LinOp(n, lambda x: x.copy())


class SolveStats:
    """Iteration count, residual history and convergence flag of one solve."""

    def __init__(self, iterations, residuals, converged):
        self.iterations = iterations
        self.residuals = residuals
        self.converged = converged

    def __repr__(self):
        return "SolveStats(it=%d, converged=%s, relres=%.2e)" % (
            self.iterations, self.converged,
            self.residuals[-1] / max(self.residuals[0], 1e-300))


def minres(A, b, Pinv=None, x0=None, rtol=1e-6, maxit=500):
    """MINRES for a symmetric system, preconditioned by an SPD operator.

    Terminates when the Pinv-norm of the residual drops below rtol times
    the Pinv-norm of the initial residual b - A x0.

    Parameters
    ----------
    A : operator, symmetric (possibly indefinite)
    b : right-hand side
    Pinv : operator, symmetric positive definite (identity if None)
    x0 : initial guess (zero if None)

    Returns
    -------
    (x, SolveStats)
    """
    A = aslinop(A)
    n = A.n
    Pinv = identity_op(n) if Pinv is None else aslinop(Pinv)
    if not 0 < rtol < 1:
        raise ValueError("rtol must lie in (0, 1)")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    # v, v_old, w, w_old, zhat and x are this solve's buffers, updated in
    # place; what A and Pinv return (possibly their input) is only read
    v = b - A(x) if x0 is not None else np.array(b, dtype=float)
    z = Pinv(v)
    g2 = v @ z
    if g2 < 0:
        raise IndefinitePreconditioner("<r, Pinv r> = %.3e < 0" % g2)
    gamma_new = np.sqrt(g2)
    residuals = [gamma_new]
    tol_abs = rtol * gamma_new
    if gamma_new == 0.0:
        return x, SolveStats(0, residuals, True)

    v_old, w, w_old, zhat = (np.zeros(n) for _ in range(4))
    gamma, gamma_old = gamma_new, 1.0
    eta = gamma_new
    s_prev = s_curr = 0.0
    c_prev = c_curr = 1.0
    converged = False
    it = 0

    while it < maxit:
        it += 1
        np.divide(z, gamma, out=zhat)
        Az = A(zhat)
        delta = zhat @ Az
        # v_old becomes Az - (delta / gamma) v - (gamma / gamma_old) v_old
        dscal(-gamma / gamma_old, v_old)
        daxpy(v, v_old, a=-delta / gamma)
        daxpy(Az, v_old)
        v_old, v = v, v_old
        z = Pinv(v)
        g2 = v @ z
        if g2 < 0:
            raise IndefinitePreconditioner("<r, Pinv r> = %.3e < 0" % g2)
        gamma_new = np.sqrt(g2)

        a0 = c_curr * delta - c_prev * s_curr * gamma
        a1 = np.hypot(a0, gamma_new)
        a2 = s_curr * delta + c_prev * c_curr * gamma
        a3 = s_prev * gamma
        c_new = a0 / a1
        s_new = gamma_new / a1

        # w_old becomes (zhat - a3 w_old - a2 w) / a1
        dscal(-a3 / a1, w_old)
        daxpy(w, w_old, a=-a2 / a1)
        daxpy(zhat, w_old, a=1.0 / a1)
        w_old, w = w, w_old
        daxpy(w, x, a=c_new * eta)
        eta = -s_new * eta
        residuals.append(abs(eta))

        gamma_old, gamma = gamma, gamma_new
        c_prev, c_curr = c_curr, c_new
        s_prev, s_curr = s_curr, s_new

        if residuals[-1] <= tol_abs or gamma_new == 0.0:
            converged = True
            break
    return x, SolveStats(it, residuals, converged)


def _plancos(apply_dual, start, Pinv, k):
    """Lanczos in the Pinv-induced inner product on the preconditioned
    operator; returns the tridiagonal recurrence coefficients.

    apply_dual maps a primal vector q to the dual vector A q (or a
    composition); primal iterates are q = Pinv(dual).
    """
    alphas, betas = [], []
    V = []  # dual-side vectors, so <q_i, q_j>_P = q_i . v_j
    Q = []
    v = start
    q = Pinv(v)
    nrm2 = v @ q
    if nrm2 <= 0:
        raise IndefinitePreconditioner("starting vector has nonpositive norm")
    nrm = np.sqrt(nrm2)
    v, q = v / nrm, q / nrm
    for j in range(k):
        V.append(v)
        Q.append(q)
        s = apply_dual(q)
        alpha = q @ s
        s = s - alpha * v
        if j > 0:
            s = s - betas[-1] * V[j - 1]
        # full reorthogonalization, twice for safety
        for _ in range(2):
            for vi, qi in zip(V, Q):
                s = s - (qi @ s) * vi
        w = Pinv(s)
        b2 = s @ w
        alphas.append(alpha)
        if b2 <= 1e-28:
            break
        beta = np.sqrt(b2)
        betas.append(beta)
        v, q = s / beta, w / beta
    return np.array(alphas), np.array(betas[:max(len(alphas) - 1, 0)])


def lanczos_extremes(A, Pinv=None, k=80, seed=0, squared=False):
    """Ritz estimates of the extreme eigenvalues of Pinv @ A.

    With squared=True the operator (Pinv A)^2 is probed instead, which
    turns both spectral-interval edges of an indefinite pencil into
    extremes; useful for |lambda| bounds.
    """
    from scipy.linalg import eigh_tridiagonal
    A = aslinop(A)
    Pinv = identity_op(A.n) if Pinv is None else aslinop(Pinv)
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(A.n)
    if squared:
        apply_dual = lambda q: A(Pinv(A(q)))
    else:
        apply_dual = lambda q: A(q)
    alphas, betas = _plancos(apply_dual, start, Pinv, k)
    if len(alphas) == 1:
        return float(alphas[0]), float(alphas[0])
    evals = eigh_tridiagonal(alphas, betas, eigvals_only=True)
    return float(evals[0]), float(evals[-1])


def spd_condition_estimate(A, Pinv=None, k=80, seed=0):
    """Condition-number estimate of an SPD pencil via Lanczos extremes."""
    lo, hi = lanczos_extremes(A, Pinv, k=k, seed=seed)
    if lo <= 0:
        raise ValueError("nonpositive Ritz value %.3e for an SPD pencil" % lo)
    return hi / lo


def indefinite_condition_estimate(A, Pinv=None, k=120, seed=0):
    """|lambda|_max / |lambda|_min estimate for a symmetric indefinite
    pencil with SPD preconditioner, via Lanczos on the squared operator."""
    lo, hi = lanczos_extremes(A, Pinv, k=k, seed=seed, squared=True)
    if lo <= 0:
        raise ValueError("squared-operator Ritz value %.3e <= 0" % lo)
    return np.sqrt(hi / lo)
