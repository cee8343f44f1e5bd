"""Closed-form reference solution on the split unit square.

The free-flow velocity, both pressures and the porous velocity
u_D = -K grad(p_D) are smooth trig fields chosen so that mass is conserved
across the interface exactly and the essential boundary conditions hold.
The momentum sources f_S, f_D follow by substitution.  The normal and
tangential stress balances on the interface are NOT homogeneous for these
fields, so the load carries an explicit interface correction g_sigma.

All formulas assume unit viscosity, friction and permeability.
"""

import numpy as np

PI = np.pi


class _Factors:
    """Points X (..., 2) and the factors of the closed-form fields there,
    each computed on first use and kept."""

    _DEFS = dict(
        s=lambda f: np.sin(2 * PI * f.x), c=lambda f: np.cos(2 * PI * f.x),
        sy=lambda f: np.sin(2 * PI * f.y), cy=lambda f: np.cos(2 * PI * f.y),
        sh=lambda f: np.sin(PI * f.x / 2), ch=lambda f: np.cos(PI * f.x / 2),
        spy=lambda f: np.sin(PI * f.y), cpy=lambda f: np.cos(PI * f.y),
        # products, not integer powers: those call pow() per element
        s3=lambda f: f.s * f.s * f.s, c3=lambda f: f.c * f.c * f.c,
        s2c=lambda f: f.s * f.s * f.c,
        # d(s^2 c)/dx / (2 pi), and the y factor of the porous pressure
        ds2c=lambda f: 2 * f.s * f.c * f.c - f.s3,
        w=lambda f: 3 * PI * f.y - 1.5 * f.sy)

    def __init__(self, X):
        self.x, self.y = X[..., 0], X[..., 1]

    def __getattr__(self, name):
        if name not in self._DEFS:
            raise AttributeError(name)
        value = self._DEFS[name](self)
        setattr(self, name, value)
        return value


class StokesFields(_Factors):
    """Free-flow velocity u, its gradient grad_u ([..., i, j] = d u_i/d x_j),
    pressure p and momentum source f = -div(2 eps(u)) + grad p."""

    @property
    def u(self):
        return np.stack([PI * self.sy * self.s3,
                         -3 * PI * self.s2c * (1 - self.cy)], -1)

    @property
    def grad_u(self):
        g = np.empty(self.x.shape + (2, 2))
        g[..., 0, 0] = 6 * PI ** 2 * self.sy * self.s2c
        g[..., 0, 1] = 2 * PI ** 2 * self.cy * self.s3
        g[..., 1, 0] = -6 * PI ** 2 * (1 - self.cy) * self.ds2c
        g[..., 1, 1] = -g[..., 0, 0]
        return g

    @property
    def p(self):
        return -(PI / 4) * self.ch * (self.y - 0.5 + self.spy)

    @property
    def f(self):
        lap1 = 4 * PI ** 3 * self.sy * (6 * self.s - 10 * self.s3)
        lap2 = -12 * PI ** 3 * ((1 - self.cy) * (2 * self.c3 - 7 * self.s2c)
                                + self.s2c * self.cy)
        return np.stack([
            -lap1 + (PI ** 2 / 8) * self.sh * (self.y - 0.5 + self.spy),
            -lap2 - (PI / 4) * self.ch * (1 + PI * self.cpy)], -1)


class DarcyFields(_Factors):
    """Porous pressure p, flux u = -grad p and source f = div u = -lap p,
    which integrates to zero over the porous half."""

    @property
    def p(self):
        return self.w * self.s2c

    @property
    def u(self):
        return np.stack([-self.w * 2 * PI * self.ds2c,
                         -3 * PI * (1 - self.cy) * self.s2c], -1)

    @property
    def f(self):
        return (-self.w * 4 * PI ** 2 * (2 * self.c3 - 7 * self.s2c)
                - 6 * PI ** 2 * self.sy * self.s2c)

    div_u = f


class ManufacturedCase:
    """Reference fields and derived data.  `stokes(X)` and `darcy(X)`
    evaluate one region's fields at points X (..., 2); the loads, the
    error norms and `g_sigma` read the fields only through them, so a
    case with other fields overrides these two."""

    nu = 1.0
    kappa = 1.0
    tau = 1.0

    stokes = StokesFields
    darcy = DarcyFields

    # --- interface data, from both regions' fields at y = 1/2 ----------
    def g_sigma(self, x):
        """Residual of the interface stress balance at y = 1/2.

        g = 2 eps(u_S) n - p_S n + pi_t(u_S) + p_D n, with n = (0, -1);
        vanishing g would mean the fields satisfy the homogeneous balance.
        """
        P = np.column_stack([x, np.full(np.shape(x), 0.5)])
        S = self.stokes(P)
        G = S.grad_u
        return np.column_stack([S.u[:, 0] - G[:, 0, 1] - G[:, 1, 0],
                                S.p - 2 * G[:, 1, 1] - self.darcy(P).p])


def _zeros(*tail):
    return property(lambda self: np.zeros(self.shape + tail))


class ZeroCase(ManufacturedCase):
    """Identically zero fields; handy for degenerate-path tests."""

    class stokes:
        def __init__(self, X):
            self.shape = np.shape(X)[:-1]

        u = f = _zeros(2)
        grad_u = _zeros(2, 2)
        p = _zeros()

    class darcy(stokes):
        p = f = div_u = _zeros()
