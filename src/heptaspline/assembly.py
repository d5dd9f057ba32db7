"""Assemble the linear system for the spline knot values.

The unknowns are the knot values y_1..y_n on the uniform grid t_i = a + i*h.
Each row is a linear identity between seventh-derivative samples U_i and
knot values; the ODE supplies U_i = g_i - f_i * y_i, which moves f_i * y_i
into the matrix and g_i into the right-hand side.

Interior rows (one per knot i = 7..n) are the consistency stencil

    h^7 * (al, be, ga, de, de, ga, be, al) . U_{i-7..i}
        = 120 * seventh-forward-difference of y_{i-7..i},

whose weights (al, be, ga, de) are the spline parameters.  Six end-condition
rows close the system; they couple U-values near t = a to nearby knot values
and to u_m = y^(m)(a), m = 1..7 (u_0..u_6 are the initial data; u_7 comes
from the ODE as g(a) - f(a) * u_0).  Each row is derived, once per mode on
first use, from a one-line spec of what it couples: it is the unique such row
exact on polynomials through degree 8 (standard: local truncation error h^9)
or 12 (improved: h^13).  The paper claims a second-order solver for the
standard rows and a fifth-order one for the improved rows on the optimal
parameter family; the acceptance suite checks observed orders >= 1.7 and
>= 4.5.  The exact rational coefficients (several exceed 64-bit integer
range) are rounded to floats once per mode.  The interior stencil is exact
through degree 8 (degree 12 on the optimal family).
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cascade import IvpProblem, _knot_grid
from .forces import tabulate
from .spline_params import INTERIOR_Y_WEIGHTS, SplineParams, _residual, validate

__all__ = [
    "EndConditionMode",
    "LinearSystem",
    "build",
    "row_residual",
    "min_knots",
]


class EndConditionMode(enum.Enum):
    STANDARD = "standard"
    IMPROVED = "improved"


class EndRow(NamedTuple):
    """One end-condition row:

    sum(c * U_j for j, c in u_terms)
        = (1/h^7) * [ sum(q * y_j for j, q in y_terms)
                      + sum(b * h^m * u_m for m, b in init_terms) ]

    with u_m = y^(m)(a) for m = 1..7.  u_0..u_6 are the initial data; u_7
    is not, and is recovered from the ODE as g(a) - f(a) * u_0 when the row
    is assembled.
    """

    u_terms: tuple[tuple[int, Fraction], ...]
    y_terms: tuple[tuple[int, Fraction], ...]
    init_terms: tuple[tuple[int, Fraction], ...]


_INTERIOR_Y_WEIGHTS = np.array(INTERIOR_Y_WEIGHTS, dtype=float)

#: Row sum of the interior stencil's |knot weights|, 120 * 2^7.
_INTERIOR_Y_SUM = float(sum(map(abs, INTERIOR_Y_WEIGHTS)))


class _RowSpec(NamedTuple):
    """Pattern of one end row; :func:`_derive_row` turns it into the row."""

    u: tuple[int, ...]     # U indices; the first and last weights are 1
    y: range               # knot indices
    init: Sequence[int]    # orders m of the init terms, ascending, in 1..7


#: Per mode: the degree through which every end row is exact, and the rows.
_END_ROW_SPECS = {
    EndConditionMode.STANDARD: (8, (
        _RowSpec((0, 1, 4), range(0, 4), range(1, 5)),
        _RowSpec((1, 2, 5), range(1, 4), range(1, 6)),
        _RowSpec((2, 3, 6), range(2, 5), range(1, 6)),
        _RowSpec((3, 7), range(3, 6), range(1, 7)),
        _RowSpec((4, 8), range(4, 7), range(1, 7)),
        _RowSpec((5, 9), range(5, 8), range(1, 7)),
    )),
    EndConditionMode.IMPROVED: (12, (
        _RowSpec((0, 1, 2, 3, 4, 5), range(0, 6), (1, 2, 7)),
        _RowSpec((1, 2, 3, 4, 5, 6), range(1, 7), range(1, 4)),
        _RowSpec((2, 3, 4, 5, 7), range(2, 8), range(1, 5)),
        _RowSpec((3, 4, 6, 7), range(3, 9), range(1, 6)),
        _RowSpec((4, 7, 9), range(4, 10), range(1, 7)),
        _RowSpec((5, 10), range(5, 11), range(1, 8)),
    )),
}


def _derive_row(spec: _RowSpec, degree: int) -> EndRow:
    """The unique row of pattern ``spec`` that is exact on t^0..t^degree.

    At h = 1 and a = 0 the row is exact on y = t^d when its residual
    without init terms, linear in the U weights c_j and knot weights q_j,
    is m! * b_m for d = m in ``spec.init`` and 0 for every other d.  Those
    other equations form a square integer system in the free c_j and the
    q_j, whose columns are the residuals of the unit weights.
    Fraction-free (Bareiss) Gauss-Jordan elimination solves it with exact
    integer divisions; the b_m are then read off their own equations.
    """
    free = spec.u[1:-1]
    ends = [(spec.u[0], 1), (spec.u[-1], 1)]
    aug = [[_residual([(j, 1)], (), (), d) for j in free]
           + [_residual((), [(j, 1)], (), d) for j in spec.y] + [-_residual(ends, (), (), d)]
           for d in range(degree + 1) if d not in spec.init]
    n = len(aug)
    if len(aug[0]) != n + 1:
        raise ValueError(f"{spec} gives {n} conditions for {len(aug[0]) - 1} unknowns")
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if aug[i][k]), None)
        if p is None:
            raise ValueError(f"{spec} does not determine a unique row")
        aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k]
        aug = [row if i == k else [(pivot[k] * x - row[k] * y) // prev for x, y in zip(row, pivot)]
               for i, row in enumerate(aug)]
        prev = pivot[k]
    solution = [Fraction(row[n], row[k]) for k, row in enumerate(aug)]
    c = {spec.u[0]: Fraction(1), **dict(zip(free, solution)), spec.u[-1]: Fraction(1)}
    q = dict(zip(spec.y, solution[len(free):]))
    return EndRow(
        u_terms=tuple(c.items()),
        y_terms=tuple(q.items()),
        init_terms=tuple((m, _residual(c.items(), q.items(), (), m) / math.factorial(m))
                         for m in spec.init),
    )


@functools.cache
def _end_rows(mode: EndConditionMode) -> tuple[EndRow, ...]:
    degree, specs = _END_ROW_SPECS[mode]
    return tuple(_derive_row(spec, degree) for spec in specs)


@functools.cache
def _float_end_rows(mode: EndConditionMode):
    """The end rows of ``mode`` rounded to float, in the layout ``build`` uses.

    Returns three read-only arrays, zero where a row has no such term: the U
    and knot weights, shape (6, min_knots + 1), indexed by knot, and the
    negated init weights -b_m, shape (6, 7), indexed by m - 1 (negated so
    that ``build``'s subtracting fold adds the init terms).  Then the scalars
    of ``build``'s range check: the largest row sums of |U weights| and of
    |knot weights|, and per m the largest |b_m|.
    """
    rows = _end_rows(mode)
    u = np.zeros((len(rows), min_knots(mode) + 1))
    y = np.zeros_like(u)
    init = np.zeros((len(rows), 7))
    for k, row in enumerate(rows):
        for j, c in row.u_terms:
            u[k, j] = float(c)
        for j, q in row.y_terms:
            y[k, j] = float(q)
        for m, b in row.init_terms:
            init[k, m - 1] = -float(b)
    for table in (u, y, init):
        table.flags.writeable = False    # shared by every build
    return (u, y, init, float(np.abs(u).sum(axis=1).max()), float(np.abs(y).sum(axis=1).max()),
            tuple(np.abs(init).max(axis=0).tolist()))


@functools.cache
def min_knots(mode: EndConditionMode) -> int:
    """Highest knot index the end rows of ``mode`` reference; the smallest admissible n."""
    return max(max(spec.u[-1], spec.y[-1]) for spec in _END_ROW_SPECS[mode][1])


@dataclass
class LinearSystem:
    """Dense n x n system A y = b for the knot values y_1..y_n on ``grid``; y0 = y(t_0)."""

    matrix: np.ndarray
    rhs: np.ndarray
    grid: np.ndarray
    y0: float


def build(problem: IvpProblem, params: SplineParams, mode: EndConditionMode,
          n: int) -> LinearSystem:
    """Assemble the system for ``n`` subintervals.

    Requires an integer ``n >= min_knots(mode)`` (the end rows reach that far
    into the grid), a parameter set passing :func:`spline_params.validate`, a grid
    step h with h^7 finite and nonzero and the row weights q/h^7 and w*h^7
    finite, f, g and u_7 = g(a) - f(a)*u_0 finite on the grid, and finite
    bounds on the row sums of |matrix| and |rhs|, checked before any array
    is filled.  The seventh-order problem is the only one the stencil encodes.
    """
    if problem.order != 7:
        raise ValueError(f"spline assembly requires a 7th order problem, got order {problem.order}")
    validate(params)
    least = min_knots(mode)
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise ValueError(f"{mode.value} end conditions need an integer n >= {least}, got n={n}")

    a, b = problem.a, problem.b
    h = (b - a) / n
    end_u, end_y, end_init, u_sum, y_sum, b_max = _float_end_rows(mode)
    al, be, ga, de = half = params.as_floats()
    try:
        h7 = h**7
    except OverflowError:
        h7 = math.inf
    u_sum = max(u_sum, 2 * h7 * (abs(al) + abs(be) + abs(ga) + abs(de)))    # interior rows: w * h^7
    if not (0 < h7 < math.inf and math.isfinite(y_sum / h7 + u_sum)):
        raise ValueError(f"grid step h = {h} is out of float range: h^7 = {h7} must be "
                         f"finite and nonzero, and the row weights q/h^7 and w*h^7 finite")
    grid = _knot_grid(a, b, n)
    table = tabulate((problem.f, problem.g), ("f", "g"), grid)     # rows f and g
    f0, g0 = table[:, 0].tolist()
    u0, *init = problem.u
    u7 = g0 - f0 * u0                                    # y^(7)(a); floats overflow unwarned
    if not math.isfinite(u7):
        raise ValueError(f"u_7 = g(a) - f(a)*u_0 = {u7} at t = {a!r} is beyond float range")
    init.append(u7)                                      # u_1..u_7
    scale = [h**-6, h**-5, h**-4, h**-3, h**-2, h**-1, h**0]    # h^(m - 7)

    # While these bounds are finite no product or sum below overflows; floats overflow unwarned.
    fmax, gmax = np.maximum.reduce(np.abs(table), axis=1).tolist()
    row_bound = fmax * u_sum + max(y_sum / h7, _INTERIOR_Y_SUM)
    if not math.isfinite(row_bound):
        raise ValueError(f"f reaches {fmax!r} in magnitude on the grid: the matrix would overflow")
    if not math.isfinite(gmax * u_sum):
        raise ValueError(f"g reaches {gmax!r} in magnitude on the grid: the rhs would overflow")
    data = sum([bm * s * abs(v) for bm, s, v in zip(b_max, scale, init)]) + row_bound * abs(u0)
    if not math.isfinite(gmax * u_sum + data):
        raise ValueError(f"initial data u_0..u_7 = {(u0, *init)}: the rhs would overflow")

    # Row k of ``work`` is equation k over the knot values y_0..y_n; column 0
    # (y_0 = u_0 is data) moves to the right-hand side at the end, and the
    # matrix is the view of columns 1..n.  ``flat`` runs n - 6 entries past
    # ``work``, so that read from row 6 with row stride n + 2 its entry [k, j]
    # is work[6 + k, k + j]: the eight interior diagonals as one (n - 6, 8) view.
    flat = np.zeros(n * (n + 2) - 6)
    work = flat[:n * (n + 1)].reshape(n, n + 1)
    rhs = np.zeros(n)

    width = end_u.shape[1]
    # U terms first, then knot terms: the order of the row-at-a-time formula.
    # The right-hand side folds each row's g terms in knot order, then its
    # init terms b_m * h^(m-7) * u_m in order of m.
    work[:6, :width] = (0.0 - end_u * table[0, :width]) - end_y / h7
    terms = np.concatenate((end_u * table[1, :width], end_init * scale * init), axis=1)
    rhs[:6] = np.subtract.reduce(terms, axis=1, initial=0.0)

    # Interior row 6 + k (knot i = 7 + k) couples knots k..k+7 with stencil
    # weight j on knot k + j, read from window views of the rows of ``table``:
    # entry [k, j] of ``fw`` and [j, k] of ``gw`` is knot k + j.  The
    # right-hand side folds the eight g terms in the order j = 0..7, as one
    # reduction down the columns of ``gw``.
    weights = np.array(half + half[::-1]) * h7
    fw = np.ndarray((n - 6, 8), float, table, 0, (8, 8))
    gw = np.ndarray((8, n - 6), float, table, 8 * (n + 1), (8, 8))
    band = np.ndarray((n - 6, 8), float, flat, 8 * 6 * (n + 1), (8 * (n + 2), 8))
    band[...] = fw * -weights - _INTERIOR_Y_WEIGHTS
    rhs[6:] = np.subtract.reduce(gw * weights[:, None], axis=0, initial=0.0)
    rhs[:7] -= work[:7, 0] * u0     # rows past 6 do not reach knot 0

    return LinearSystem(matrix=work[:, 1:], rhs=rhs, grid=grid, y0=u0)


def row_residual(problem: IvpProblem, params: SplineParams, mode: EndConditionMode,
                 degree: int, n: int, row: int) -> Fraction:
    """Exact residual of one row on the sample y(t) = (t - a)^degree with f = 0.

    With f identically zero, U_i is exactly y^(7)(t_i) for the sampled
    polynomial, so the residual (U-side minus knot-value side) isolates the
    row's truncation behaviour.  ``row`` 1..6 selects an end-condition row
    (h^(degree-7) times its residual at h = 1), ``row`` in 7..n an interior
    row (h^degree times it).  All arithmetic is exact: the grid step is
    formed from the dyadic rationals of the interval endpoints, so a zero
    return certifies the row's coefficients.
    """
    if not problem.f.is_zero:
        raise ValueError("row_residual requires a problem with f identically zero")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if not 1 <= row <= n:
        raise ValueError(f"row must be in 1..{n}, got {row}")
    h = (Fraction(problem.b) - Fraction(problem.a)) / n
    if row <= 6:
        er = _end_rows(mode)[row - 1]
        return h ** (degree - 7) * _residual(er.u_terms, er.y_terms, er.init_terms, degree)
    half = tuple(Fraction(v) for v in (params.alpha, params.beta, params.gamma, params.delta))
    knots = range(row - 7, row + 1)
    return h ** degree * _residual(zip(knots, half + half[::-1]), zip(knots, INTERIOR_Y_WEIGHTS),
                                   (), degree)
