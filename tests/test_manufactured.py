"""Finite-difference cross-checks of the hard-coded reference fields."""

import numpy as np
import pytest

from stokesdarcy.manufactured import ManufacturedCase, ZeroCase

H = 1e-6


@pytest.fixture(scope="module")
def case():
    return ManufacturedCase()


@pytest.fixture(scope="module")
def stokes_pts(rng):
    return np.column_stack([rng.random(150), 0.5 + 0.5 * rng.random(150)])


@pytest.fixture(scope="module")
def darcy_pts(rng):
    return np.column_stack([rng.random(150), 0.5 * rng.random(150)])


def fd_grad_vec(f, p):
    g = np.empty((len(p), 2, 2))
    for j in range(2):
        dp = np.zeros_like(p)
        dp[:, j] = H
        g[:, :, j] = (f(p + dp) - f(p - dp)) / (2 * H)
    return g


def fd_grad_scal(f, p):
    g = np.empty((len(p), 2))
    for j in range(2):
        dp = np.zeros_like(p)
        dp[:, j] = H
        g[:, j] = (f(p + dp) - f(p - dp)) / (2 * H)
    return g


def fd_lap_vec(f, p):
    out = np.zeros((len(p), 2))
    for j in range(2):
        dp = np.zeros_like(p)
        dp[:, j] = H
        out += (f(p + dp) - 2 * f(p) + f(p - dp)) / H ** 2
    return out


def test_velocity_gradient(case, stokes_pts):
    g = case.stokes(stokes_pts).grad_u
    err = np.abs(g - fd_grad_vec(lambda p: case.stokes(p).u, stokes_pts))
    assert err.max() < 1e-6 * np.abs(g).max()


def test_free_flow_is_divergence_free(case, stokes_pts):
    g = case.stokes(stokes_pts).grad_u
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12


def test_momentum_source(case, stokes_pts):
    fd = -fd_lap_vec(lambda p: case.stokes(p).u, stokes_pts) \
        + fd_grad_scal(lambda p: case.stokes(p).p, stokes_pts)
    f = case.stokes(stokes_pts).f
    assert np.abs(f - fd).max() < 1e-5 * np.abs(f).max()


def test_porous_velocity_is_negative_gradient(case, darcy_pts):
    fd = -fd_grad_scal(lambda p: case.darcy(p).p, darcy_pts)
    assert np.abs(case.darcy(darcy_pts).u - fd).max() < 1e-6


def test_porous_source_is_divergence(case, darcy_pts):
    g = fd_grad_vec(lambda p: case.darcy(p).u, darcy_pts)
    f = case.darcy(darcy_pts).f
    assert np.abs(f - (g[:, 0, 0] + g[:, 1, 1])).max() < 1e-5 * np.abs(f).max()


def test_interface_fluxes_match(case):
    x = np.linspace(0, 1, 20)
    pts = np.column_stack([x, np.full_like(x, 0.5)])
    n = np.array([0.0, -1.0])
    uSn = case.stokes(pts).u @ n
    uDn = case.darcy(pts).u @ n
    assert np.abs(uSn - uDn).max() < 1e-13


def test_interface_residual_identity(case):
    x = np.linspace(0.03, 0.97, 17)
    pts = np.column_stack([x, np.full_like(x, 0.5)])
    n = np.array([0.0, -1.0])
    S = case.stokes(pts)
    G = S.grad_u
    eps = 0.5 * (G + np.transpose(G, (0, 2, 1)))
    u = S.u
    pit = u - (u @ n)[:, None] * n[None, :]
    direct = 2 * np.einsum("nij,j->ni", eps, n) \
        - S.p[:, None] * n + pit + case.darcy(pts).p[:, None] * n
    assert np.abs(case.g_sigma(x) - direct).max() < 1e-12


def test_source_compatibility_and_pressure_mean(case):
    from scipy.special import roots_legendre
    x, w = roots_legendre(50)
    x = 0.5 * (x + 1)
    w = 0.5 * w
    X, Y = np.meshgrid(x, 0.5 * x)
    W = np.outer(0.5 * w, w).ravel()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    D = case.darcy(pts)
    assert abs(np.sum(W * D.f)) < 1e-12
    assert abs(np.sum(W * D.p)) < 1e-12


def test_essential_boundary_conditions(case):
    t = np.linspace(0, 1, 41)
    top = np.column_stack([t, np.ones_like(t)])
    walls = np.column_stack([np.round(t), 0.5 + 0.5 * t])
    assert np.abs(case.stokes(top).u).max() < 1e-13
    assert np.abs(case.stokes(walls).u).max() < 1e-13
    bottom = np.column_stack([t, np.zeros_like(t)])
    wallsD = np.column_stack([np.round(t), 0.5 * t])
    assert np.abs(case.darcy(bottom).u[:, 1]).max() < 1e-13
    assert np.abs(case.darcy(wallsD).u[:, 0]).max() < 1e-13


def test_zero_case_all_zero():
    z = ZeroCase()
    pts = np.array([[0.3, 0.7], [0.6, 0.2]])
    assert not z.stokes(pts).u.any() and not z.stokes(pts).f.any()
    assert not z.darcy(pts).p.any() and not z.darcy(pts).f.any()
    assert not z.g_sigma(pts[:, 0]).any()
