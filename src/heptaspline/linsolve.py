"""Dense solve of the assembled system.

The end-condition rows carry 1/h^7 factors while interior rows are O(1), so
row magnitudes differ wildly at small h; partial pivoting is mandatory.
LAPACK's lange/getrf/getrs do the work; this module adds the non-finite check,
the singularity guard and the backward-residual acceptance check.

The routines come from scipy's ``_flapack`` extension, loaded from its file at
the first factorisation: importing this module loads no scipy, and a solve
does not run ``scipy.linalg``'s ``__init__``, which costs about half of a
short CLI process.  The module is registered under its own name, so a later
``import scipy.linalg`` reuses it.  If the file is missing or fails to load,
the public ``scipy.linalg.lapack``, which re-exports the same routines, is
imported instead.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from .assembly import LinearSystem

__all__ = ["SolutionGrid", "LinearSolveError", "lu_solve"]

#: A pivot at or below this fraction of the largest entry of its row of U is
#: treated as numerically singular.
_PIVOT_RTOL = 1e-14

#: Accepted bound on ||A y - b||_inf relative to ||A||_inf * ||y||_inf.
_RESIDUAL_RTOL = 1e-8

#: Floor of ||y||_inf in that bound: the smallest positive normal float.
_TINY = float(np.finfo(float).tiny)


#: Name under which scipy registers its LAPACK extension module.
_FLAPACK = "scipy.linalg._flapack"


def _flapack_spec() -> importlib.machinery.ModuleSpec:
    """Spec of scipy's LAPACK extension file, found without running scipy's code."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed as a package")
    linalg = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            return importlib.util.spec_from_file_location(_FLAPACK, path)
    raise ImportError(f"no _flapack extension in {linalg}")


def _lapack() -> ModuleType:
    """The module whose ``dlange``/``dgetrf``/``dgetrs`` the solve calls.

    ``sys.modules`` caches it: the extension once loaded here, or imported by
    ``scipy.linalg``, is returned as it is.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    try:
        spec = _flapack_spec()
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        from scipy.linalg import lapack
        return lapack
    sys.modules[_FLAPACK] = module
    return module


class LinearSolveError(RuntimeError):
    """Numerically singular system or failed accuracy check."""


@dataclass
class SolutionGrid:
    """Knots t, values y (y[0] = u_0) and backward residual ||A y - b||_inf of one solve."""

    t: np.ndarray
    y: np.ndarray
    residual_inf: float


@functools.lru_cache(maxsize=128)
def _row_segments(n: int) -> np.ndarray:
    """Read-only ``reduceat`` offsets of the pivot guard for an n x n flat |LU|:
    2i is the diagonal entry of row i, 2i + 1 the start of row i + 1."""
    segments = np.empty((n, 2), dtype=np.intp)
    segments[:, 0] = np.arange(0, n * (n + 1), n + 1)      # i (n + 1): diagonal of row i
    segments[:, 1] = np.arange(1, n + 1) * n               # (i + 1) n: start of row i + 1
    offsets = segments.reshape(-1)[:-1]
    offsets.flags.writeable = False
    return offsets


def _factor(system: LinearSystem) -> tuple[np.ndarray, np.ndarray, float]:
    """LU factors and pivots of ``system.matrix`` (LAPACK getrf), and its inf-norm (lange)."""
    A = system.matrix
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    # LAPACK reads column-major arrays, so one column-major copy of A serves
    # both calls: dlange takes ||A||_inf from it (one pass, row sums in order,
    # NaN propagated, overflow to inf unwarned) and dgetrf factors it in
    # place.  The norm is finite when every row sum is, so the largest entry
    # is looked at only when it is not.
    lapack = _lapack()
    a = np.array(A, order="F")
    anorm = float(lapack.dlange("I", a))
    if not math.isfinite(anorm):
        if not math.isfinite(np.abs(A).max()):
            raise LinearSolveError("system contains non-finite entries")
        raise LinearSolveError(f"||A||_inf = {anorm} is beyond float range, "
                               f"so the backward residual cannot be bounded")
    if np.count_nonzero(np.isfinite(system.rhs)) != system.rhs.size:
        raise LinearSolveError("system contains non-finite entries")
    lu, piv, _ = lapack.dgetrf(a, overwrite_a=1)   # a zero pivot (info > 0) fails the guard below
    # Row magnitudes legitimately span many orders (1/h^7 end rows vs O(1)
    # interior rows), so each pivot is judged against its own row of U.  A
    # row of U that is all zero fails too, since its pivot 0 <= 0.  One
    # reduceat over the flat |LU| takes the row maxima: segment 2i is row i
    # from its diagonal on, segment 2i + 1 the part of row i + 1 left of it.
    lu_magnitude = np.abs(lu)
    pivots = lu_magnitude.diagonal()
    row_scale = np.maximum.reduceat(lu_magnitude.reshape(-1), _row_segments(len(pivots)))[::2]
    if np.count_nonzero(pivots <= _PIVOT_RTOL * row_scale):
        worst = int(np.argmin(np.where(row_scale > 0, pivots / np.maximum(row_scale, 1e-300), 0.0)))
        raise LinearSolveError(
            f"numerically singular matrix: pivot {pivots[worst]:.3e} vs "
            f"row scale {row_scale[worst]:.3e} at elimination step {worst}")
    return lu, piv, anorm


def lu_solve(system: LinearSystem) -> SolutionGrid:
    """Solve by LU with partial pivoting and return the full knot grid.

    The backward residual ||A y - b||_inf is stored on the result and must
    satisfy residual <= 1e-8 * ||A||_inf * ||y||_inf, else the solve is
    rejected as unreliable.
    """
    lu, piv, anorm = _factor(system)
    y, _ = _lapack().dgetrs(lu, piv, system.rhs)
    # ||A y - b||_inf and ||y||_inf, in one reduction over both vectors
    residual, ynorm = np.maximum.reduce(np.abs((system.matrix @ y - system.rhs, y)), axis=1,
                                        initial=0.0).tolist()
    bound = _RESIDUAL_RTOL * anorm * max(ynorm, _TINY)
    if not residual <= bound:     # a NaN residual fails too
        raise LinearSolveError(
            f"backward residual {residual:.3e} exceeds bound {bound:.3e}")
    return SolutionGrid(t=system.grid, y=np.concatenate(([system.y0], y)),
                        residual_inf=residual)
