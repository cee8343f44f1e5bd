"""Operator-property battery: the structural identities behind the method,
probed on a small production mesh.  Each check returns a (name, passed,
detail) triple; the CLI prints them, the test suite asserts them."""

import numpy as np

from . import assembly, ftp, precond, quadrature
from .krylov import minres
from .mesh import build_unit_square, refine_uniform
from .solver import (INNER_KINDS, KINDS, OUTER_KINDS, Problem, SolveConfig,
                     outer_preconditioner)


def _spd_probe(op, rng):
    worst = np.inf
    for _ in range(20):
        x = rng.standard_normal(op.n)
        worst = min(worst, x @ op(x))
    sym_ok, sym_err = op.check_symmetry(rng)
    return worst > 0 and sym_ok, "min <Px,x> = %.2e, asym %.1e" % (worst, sym_err)


def run_all(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    n = 8
    mesh = build_unit_square(n)

    areas = 0.5 * mesh.geometry().det
    ok = (np.all(areas > 0)
          and abs(areas[mesh.tri_region == 0].sum() - 0.5) < 1e-14
          and abs(areas[mesh.tri_region == 1].sum() - 0.5) < 1e-14)
    ref = refine_uniform(mesh)
    ok = ok and len(ref.triangles) == 4 * len(mesh.triangles)
    out.append(("mesh: positive areas, half/half split, red refinement",
                ok, "%d triangles" % mesh.num_triangles))

    pr = Problem("mini", n)
    prt = Problem("th", n)

    # commuting diagram and divergence inclusion, both flux families
    for p in (pr, prt):
        flux, dpres = p.flux, p.dpres
        field = lambda x: np.column_stack([x[:, 0] ** 2 * x[:, 1],
                                           x[:, 1] ** 2 - x[:, 0] * x[:, 1]])
        divf = lambda x: 2 * x[:, 0] * x[:, 1] + 2 * x[:, 1] - x[:, 0]
        ci = flux.canonical_interpolation(field)
        pts, w = quadrature.triangle_rule(8)
        pvals = dpres.values(pts)
        dh = flux.field(ci, pts)[1]
        # L2 projection of div(field) onto the pressure space, elementwise
        nloc = pvals.shape[0]
        Mloc = np.einsum("q,lq,mq->lm", w, pvals, pvals)
        rhs = np.einsum("q,tq,lq->tl", w, dpres.geom.evaluate(divf, pts),
                        pvals)
        rhs_h = np.einsum("q,tq,lq->tl", w, dh, pvals)
        resid = np.abs(rhs - rhs_h).max()
        out.append(("commuting interpolation (div o interp = proj o div), %s"
                    % flux.family, resid < 1e-12, "residual %.1e" % resid))

        # div H in L: divergence of every flux basis function reproduced
        c = rng.standard_normal(flux.ndof)
        dh = flux.field(c, pts)[1]
        proj = np.linalg.solve(np.broadcast_to(Mloc, (len(dpres.tris), nloc, nloc)),
                               np.einsum("q,tq,lq->tl", w, dh, pvals)[..., None])[..., 0]
        back = np.einsum("tl,lq->tq", proj, pvals)
        worst = np.abs(back - dh).max() / max(np.abs(dh).max(), 1.0)
        out.append(("divergence inclusion div H in L, %s" % flux.family,
                    worst < 1e-12, "residual %.1e" % worst))

    # flux-to-pressure operator: symmetry and positive semidefiniteness
    sub = ftp.ExactDarcySubsolver(pr)
    ndim = pr.trace.ndim
    worst_sym, worst_psd = 0.0, np.inf
    for _ in range(10):
        phi = rng.standard_normal(ndim)
        psi = rng.standard_normal(ndim)
        Fphi = sub.solve_lifted(phi).functional
        Fpsi = sub.solve_lifted(psi).functional
        scale = max(np.abs(Fphi).max() * np.abs(psi).max(), 1e-30)
        worst_sym = max(worst_sym, abs(psi @ Fphi - phi @ Fpsi) / scale)
        worst_psd = min(worst_psd, phi @ Fphi)
    out.append(("flux-to-pressure symmetry", worst_sym <= 1e-10,
                "relative asymmetry %.1e" % worst_sym))
    out.append(("flux-to-pressure nonnegativity", worst_psd >= -1e-12,
                "min <F(phi), phi> = %.2e" % worst_psd))

    # rotated-gradient image is divergence free: D_D C = 0 columnwise
    for p in (pr, prt):
        C, _ = precond.build_hx_transfers(p, *precond.hx_spaces(p.flux))
        D = assembly.flux_operator_matrices(p.flux, p.params.tau)[1]
        Dff = D[np.ix_(p.free_flux, p.free_flux)]
        resid = abs(Dff @ C).max() if C.nnz else 0.0
        out.append(("div o curl = 0 on auxiliary columns, %s" % p.flux.family,
                    resid < 1e-10, "max |D C| = %.1e" % resid))

    # preconditioner variants: SPD probes
    for kind in OUTER_KINDS:
        config = SolveConfig("mini", n, combo=(kind, INNER_KINDS[0]))
        ok, detail = _spd_probe(outer_preconditioner(pr, config), rng)
        out.append(("outer preconditioner SPD probe, %s" % kind, ok, detail))
    for kind in INNER_KINDS:
        ok, detail = _spd_probe(KINDS[kind].build(pr), rng)
        out.append(("inner velocity-block SPD probe, %s" % kind, ok, detail))

    # Krylov kernel sanity: indefinite diagonal system
    import scipy.sparse as sp
    x, st = minres(sp.diags([1.0, -1.0]).tocsr(), np.array([1.0, 1.0]),
                   rtol=1e-12)
    out.append(("residual-minimizing kernel handles indefiniteness",
                st.converged and np.allclose(x, [1.0, -1.0]),
                "%d iterations" % st.iterations))
    return out
