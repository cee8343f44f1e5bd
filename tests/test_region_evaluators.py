"""The region evaluators of the reference solution against the per-field
formulas and the per-field error path they replaced, kept here as the
reference."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from stokesdarcy import compute_errors, quadrature, solve_monolithic_oracle
from stokesdarcy.fespace import ref_basis
from stokesdarcy.manufactured import ManufacturedCase, ZeroCase
from stokesdarcy.verify import ERROR_QDEG

PI = np.pi


def _sc(x):
    return np.sin(2 * PI * x), np.cos(2 * PI * x)


class PerFieldCase:
    """One closed-form function per field, each making its own trig
    calls."""

    def u_S(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        out = np.empty_like(p)
        out[:, 0] = PI * np.sin(2 * PI * y) * s ** 3
        out[:, 1] = -3 * PI * s ** 2 * c * (1 - np.cos(2 * PI * y))
        return out

    def grad_u_S(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        sy, cy = np.sin(2 * PI * y), np.cos(2 * PI * y)
        g = np.empty((len(p), 2, 2))
        g[:, 0, 0] = 6 * PI ** 2 * sy * s ** 2 * c
        g[:, 0, 1] = 2 * PI ** 2 * cy * s ** 3
        g[:, 1, 0] = -6 * PI ** 2 * (1 - cy) * (2 * s * c ** 2 - s ** 3)
        g[:, 1, 1] = -6 * PI ** 2 * sy * s ** 2 * c
        return g

    def p_S(self, p):
        x, y = p[:, 0], p[:, 1]
        return -(PI / 4) * np.cos(PI * x / 2) * (y - 0.5 + np.sin(PI * y))

    def f_S(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        sy, cy = np.sin(2 * PI * y), np.cos(2 * PI * y)
        lap1 = 4 * PI ** 3 * sy * (6 * s - 10 * s ** 3)
        lap2 = -12 * PI ** 3 * ((1 - cy) * (2 * c ** 3 - 7 * s ** 2 * c)
                                + s ** 2 * c * cy)
        out = np.empty_like(p)
        out[:, 0] = -lap1 + (PI ** 2 / 8) * np.sin(PI * x / 2) \
            * (y - 0.5 + np.sin(PI * y))
        out[:, 1] = -lap2 - (PI / 4) * np.cos(PI * x / 2) \
            * (1 + PI * np.cos(PI * y))
        return out

    def p_D(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        return (3 * PI * y - 1.5 * np.sin(2 * PI * y)) * s ** 2 * c

    def u_D(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        w = 3 * PI * y - 1.5 * np.sin(2 * PI * y)
        out = np.empty_like(p)
        out[:, 0] = -w * 2 * PI * (2 * s * c ** 2 - s ** 3)
        out[:, 1] = -3 * PI * (1 - np.cos(2 * PI * y)) * s ** 2 * c
        return out

    def f_D(self, p):
        x, y = p[:, 0], p[:, 1]
        s, c = _sc(x)
        w = 3 * PI * y - 1.5 * np.sin(2 * PI * y)
        return (-w * 4 * PI ** 2 * (2 * c ** 3 - 7 * s ** 2 * c)
                - 6 * PI ** 2 * np.sin(2 * PI * y) * s ** 2 * c)

    div_u_D = f_D

    def g_sigma(self, x):
        s, c = _sc(x)
        out = np.empty((len(x), 2))
        out[:, 0] = 24 * PI ** 2 * s * c ** 2 - 10 * PI ** 2 * s ** 3
        out[:, 1] = -(PI / 4) * np.cos(PI * x / 2) - 1.5 * PI * s ** 2 * c
        return out


class PerFieldZero:
    def u_S(self, p):
        return np.zeros_like(p)

    def grad_u_S(self, p):
        return np.zeros((len(p), 2, 2))

    def p_S(self, p):
        return np.zeros(len(p))

    u_D, p_D, div_u_D = u_S, p_S, p_S


def _velocity_h1_error(vel, coeffs, u_exact, grad_exact):
    sc = vel.scalar
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    vals, grads = ref_basis(sc.family, pts)
    nt, nq = len(sc.tris), len(w)
    c = coeffs[vel.cell_dofs].reshape(nt, -1, 2)
    eu = sc.geom.evaluate(u_exact, pts) - vals.T @ c
    ref = np.swapaxes(c, 1, 2) @ grads.reshape(len(vals), -1)
    uh = ref.reshape(nt, 2 * nq, 2) @ np.swapaxes(sc.geom.invJT, 1, 2)
    eg = sc.geom.evaluate(grad_exact, pts) \
        - np.swapaxes(uh.reshape(nt, 2, nq, 2), 1, 2)
    return math.sqrt(np.einsum("q,t,tq->", w, sc.geom.det,
                               (eu ** 2).sum(-1) + (eg ** 2).sum((-2, -1))))


def _scalar_l2_error(space, coeffs, exact):
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    err = space.geom.evaluate(exact, pts) \
        - coeffs[space.cell_dofs] @ space.values(pts)
    return math.sqrt(np.einsum("q,t,tq->", w, space.geom.det, err ** 2))


def _flux_hdiv_error(flux, coeffs, u_exact, div_exact):
    pts, w = quadrature.triangle_rule(ERROR_QDEG)
    uh, dh = flux.field(coeffs, pts)
    eu = flux.geom.evaluate(u_exact, pts) - uh
    ed = flux.geom.evaluate(div_exact, pts) - dh
    return math.sqrt(np.einsum("q,t,tq->", w, flux.geom.det,
                               (eu ** 2).sum(-1) + ed ** 2))


def per_field_errors(report, case):
    """The error tuple through one callable per field, each evaluated at
    its own mapped points."""
    pr = report.problem
    return (_velocity_h1_error(pr.vel, report.u_S, case.u_S, case.grad_u_S),
            _scalar_l2_error(pr.pres, report.p_S, case.p_S),
            _flux_hdiv_error(pr.flux, report.u_D, case.u_D, case.div_u_D),
            _scalar_l2_error(pr.dpres, report.p_D, case.p_D))


def _assert_close(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("shape", [(300,), (20, 15)])
def test_evaluators_match_per_field_formulas(rng, shape):
    """Every field of both evaluators, on flat and batched point sets,
    and the interface data derived from them."""
    ref, case = PerFieldCase(), ManufacturedCase()
    xs = rng.random(shape)
    for region, y0, fields in (
            (case.stokes, 0.5, {"u": ref.u_S, "grad_u": ref.grad_u_S,
                                "p": ref.p_S, "f": ref.f_S}),
            (case.darcy, 0.0, {"u": ref.u_D, "p": ref.p_D, "f": ref.f_D,
                               "div_u": ref.div_u_D})):
        X = np.stack([xs, y0 + 0.5 * rng.random(shape)], axis=-1)
        ev = region(X)
        for name, formula in fields.items():
            want = formula(X.reshape(-1, 2))
            got = getattr(ev, name)
            assert got.shape[:len(shape)] == shape, name
            _assert_close(got.reshape(want.shape), want, 1e-14)
    x = rng.random(40)
    _assert_close(case.g_sigma(x), ref.g_sigma(x), 1e-14)


@pytest.mark.parametrize("pair", ["mini", "iso", "th"])
def test_compute_errors_matches_per_field_path(problem_cache, pair):
    pr = problem_cache(pair, 8)
    rep = solve_monolithic_oracle(pr)
    c = np.random.default_rng(3)
    noise = SimpleNamespace(problem=pr, **{
        f: c.standard_normal(len(getattr(rep, f)))
        for f in ("u_S", "p_S", "u_D", "p_D")})
    for report in (rep, noise):
        for case, ref in ((ManufacturedCase(), PerFieldCase()),
                          (ZeroCase(), PerFieldZero())):
            np.testing.assert_allclose(
                compute_errors(report, case).as_tuple(),
                per_field_errors(report, ref), rtol=1e-13, atol=0)
