"""Spectral quality of the preconditioner blocks.

Lanczos extreme-eigenvalue estimates show that the block-diagonal outer
preconditioner keeps the (indefinite) coupled operator's generalized
condition number essentially constant under refinement, and likewise for
the auxiliary-space treatment of the div-elliptic porous block.
"""

from stokesdarcy import Problem
from stokesdarcy import ftp, precond
from stokesdarcy.krylov import (indefinite_condition_estimate,
                                spd_condition_estimate)
from stokesdarcy.solver import _outer_operator

# ---------------------------------------------------------------------
# outer saddle operator, exact interface coupling, exact diagonal blocks
print("outer coupled operator, block-diagonal preconditioner")
for n in (8, 16, 32):
    problem = Problem("mini", n)
    sub = ftp.ExactDarcySubsolver(problem)
    op = _outer_operator(problem, ftp.CouplingOperator(problem.R_f, sub))
    P = precond.block_diag_op([precond.direct_inverse(problem.A_ff),
                               precond.direct_inverse(problem.M_S)])
    cond = indefinite_condition_estimate(op, P, k=110, seed=3)
    print("  h = 1/%-3d cond ~ %.2f" % (n, cond))

# ---------------------------------------------------------------------
# div-elliptic porous block with the auxiliary-space preconditioner
print("\nporous div-elliptic block, auxiliary-space preconditioner")
for family, pair in (("bdm1", "mini"), ("rt1", "th")):
    conds = []
    for n in (8, 16, 32):
        problem = Problem(pair, n)
        hx = precond.build_hx_precond(problem, n)
        conds.append(spd_condition_estimate(problem.Adiv_f, hx, k=100,
                                            seed=4))
    print("  %s: cond ~ %s" % (family, ", ".join("%.1f" % c for c in conds)))

print("""
both stay bounded under refinement; each application of the
auxiliary-space operator costs one diagonal scaling plus one solve with
the stacked second-order nodal block, which is what makes the inner
loop cheap
""")

# ---------------------------------------------------------------------
# stability constants of the half-problems
from stokesdarcy.solver import estimate_infsup

print("divergence inf-sup constants across refinement")
for pair in ("mini", "taylorhood"):
    rows = [estimate_infsup(pair, n) for n in (4, 8, 16)]
    print("  %-10s beta_S: %s   beta_D: %s" % (
        pair,
        " ".join("%.3f" % r["beta_S"] for r in rows),
        " ".join("%.3f" % r["beta_D"] for r in rows)))
