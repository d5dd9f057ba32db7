"""Seventh-order IVP solver: non-polynomial splines plus cascade reduction.

Quick tour:

>>> from heptaspline import optimal_family, EndConditionMode, build, lu_solve
>>> from heptaspline.oracle import BENCHMARKS, max_abs_error
>>> bench = BENCHMARKS[0]
>>> grid = lu_solve(build(bench.problem, optimal_family(30), EndConditionMode.IMPROVED, 20))
>>> max_abs_error(grid, bench.exact) < 1e-4
True

Importing the package loads none of its modules (PEP 562): the first public
name or module asked of it loads the whole library, and each name is then kept
in the package namespace.  So the CLI, which imports the modules it runs,
loads no numpy for ``coeffs`` and no oracle for a solve.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: The library's modules.  The first name asked of the package loads them all,
#: with the RK kernel: loaded at the first RK call instead, it left a ``verify``
#: benchmark op 2-28 more minor page faults (of ~270-300) in 5 of 6 environments.
_MODULES = ("assembly", "cascade", "forces", "linsolve", "oracle", "spline_params")


def __getattr__(name: str):
    if name.startswith("_") and name != "__all__":    # probes such as __wrapped__ load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = [_importlib.import_module(f"{__name__}.{module}") for module in _MODULES]
    _importlib.import_module(f"{__name__}._rk4")
    if name in _MODULES:
        return globals()[name]
    if name == "__all__":
        value = [public for module in modules for public in module.__all__] + ["__version__"]
    else:
        home = next((module for module in modules if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
