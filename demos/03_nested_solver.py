"""Anatomy of the decoupled solve.

The porous problem enters the free-flow system only through a nonlocal
interface operator: each application solves one porous saddle problem,
so the whole iteration is two nested residual-minimizing loops.  This
script runs the solver with the different preconditioner combinations
and then checks the splitting against a monolithic factorized solve.
"""

import numpy as np

from stokesdarcy import (Problem, SolveConfig, solve_coupled,
                         solve_monolithic_oracle)

# ---------------------------------------------------------------------
# iteration counts for the preconditioner combinations
print("outer(mean inner) iterations, bubble-enriched pair")
print("%6s  %14s %14s %14s" % ("h", "direct:pd0", "direct:hx", "bpx:pd0"))
for n in (8, 16, 32):
    cells = []
    for combo in ("direct:pd0", "direct:hx", "bpx:pd0"):
        problem = Problem("mini", n)
        report = solve_coupled(problem, SolveConfig("mini", n, combo=combo))
        cells.append("%d(%d)" % (report.outer_iterations,
                                 round(report.mean_inner)))
    print("%6s  %14s %14s %14s" % (("1/%d" % n,) + tuple(cells)))

print("""
the exact-block columns are flat in h: the block-diagonal preconditioners
keep the preconditioned spectra inside fixed intervals, so the Krylov
work does not grow under refinement
""")

# ---------------------------------------------------------------------
# the decoupled solution equals the monolithic one
problem = Problem("taylorhood-rt1", 8)
mono = solve_monolithic_oracle(problem)
nested = solve_coupled(problem, SolveConfig("taylorhood-rt1", 8,
                                            outer_rtol=1e-10,
                                            inner_rtol=1e-12,
                                            maxit_inner=5000))


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


print("nested vs monolithic relative differences (tight tolerances):")
for name, a, b in (("u_S", nested.u_S, mono.u_S),
                   ("p_S", nested.p_S, mono.p_S),
                   ("u_D", nested.u_D, mono.u_D),
                   ("p_D", nested.p_D, mono.p_D)):
    print("  %s: %.2e" % (name, rel(a, b)))

# mass conservation across the interface is built into the splitting
got = problem.ntrace @ nested.u_D
want = problem.R_f @ nested.u_S[problem.free_vel]
print("interface flux mismatch (DOF-exact): %.2e"
      % np.abs(got - want).max())
