"""Seventh-order IVP solver: non-polynomial splines plus cascade reduction.

Quick tour:

>>> from heptaspline import optimal_family, EndConditionMode, build, lu_solve
>>> from heptaspline.oracle import BENCHMARKS, max_abs_error
>>> bench = BENCHMARKS[0]
>>> grid = lu_solve(build(bench.problem, optimal_family(30), EndConditionMode.IMPROVED, 20))
>>> max_abs_error(grid, bench.exact) < 1e-4
True
"""

from . import assembly, cascade, forces, linsolve, oracle, spline_params
from .assembly import *  # noqa: F403 -- each module's __all__ is the one list of its public names
from .cascade import *  # noqa: F403
from .forces import *  # noqa: F403
from .linsolve import *  # noqa: F403
from .oracle import *  # noqa: F403
from .spline_params import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (assembly, cascade, forces, linsolve, oracle, spline_params)
           for name in module.__all__] + ["__version__"]
