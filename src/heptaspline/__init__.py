"""Seventh-order IVP solver: non-polynomial splines plus cascade reduction.

Quick tour:

>>> from heptaspline import optimal_family, EndConditionMode, build, lu_solve
>>> from heptaspline.oracle import BENCHMARKS, max_abs_error
>>> bench = BENCHMARKS[0]
>>> grid = lu_solve(build(bench.problem, optimal_family(30), EndConditionMode.IMPROVED, 20))
>>> max_abs_error(grid, bench.exact) < 1e-4
True
"""

from .assembly import EndConditionMode, LinearSystem, build, min_knots, row_residual
from .cascade import CascadeModel, IvpProblem, reduce, simulate_direct
from .forces import ForceExpr, ForceTerm, ParseError, parse
from .linsolve import LinearSolveError, SolutionGrid, lu_solve
from .oracle import (
    BENCHMARKS,
    Benchmark,
    ConvergenceReport,
    RkTrajectory,
    convergence_study,
    max_abs_error,
    rk_solve,
)
from .spline_params import (
    SplineParams,
    TruncationCoeffs,
    from_theta,
    optimal_family,
    truncation_coeffs,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARKS",
    "Benchmark",
    "CascadeModel",
    "ConvergenceReport",
    "EndConditionMode",
    "ForceExpr",
    "ForceTerm",
    "IvpProblem",
    "LinearSolveError",
    "LinearSystem",
    "ParseError",
    "RkTrajectory",
    "SolutionGrid",
    "SplineParams",
    "TruncationCoeffs",
    "build",
    "convergence_study",
    "from_theta",
    "lu_solve",
    "max_abs_error",
    "min_knots",
    "optimal_family",
    "parse",
    "reduce",
    "rk_solve",
    "row_residual",
    "simulate_direct",
    "truncation_coeffs",
    "validate",
    "__version__",
]
