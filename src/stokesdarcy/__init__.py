"""Mixed finite-element solver for the coupled free-flow / porous-media
problem on the split unit square, with a decoupled nested-MINRES
iteration, block-diagonal preconditioning and multilevel / auxiliary-space
velocity blocks."""

import os

# one BLAS thread unless the environment says otherwise: more threads
# burn CPU on these small sparse solves without shortening them.  This
# acts only if numpy is not loaded yet, as for the console script.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .assembly import InvalidCaseError, PhysicalParams
from .krylov import LinOp, SolveStats, minres
from .manufactured import ManufacturedCase, ZeroCase
from .mesh import CoupledMesh, build_unit_square, refine_uniform
from .solver import (PAIRS, Problem, SolveConfig, SolveReport, canonical_pair,
                     estimate_infsup, parse_combo, solve_coupled,
                     solve_monolithic_oracle)
from .verify import ErrorRecord, RateRecord, compute_errors, compute_rates

__all__ = [
    "CoupledMesh", "ErrorRecord", "InvalidCaseError", "LinOp",
    "ManufacturedCase", "PAIRS", "PhysicalParams", "Problem", "RateRecord",
    "SolveConfig", "SolveReport", "SolveStats", "ZeroCase",
    "build_unit_square", "canonical_pair", "compute_errors", "compute_rates",
    "estimate_infsup", "minres", "parse_combo", "refine_uniform",
    "solve_coupled", "solve_monolithic_oracle",
]
