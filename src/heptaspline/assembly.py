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
and to the initial data u_0..u_6.  Each row is derived, once per mode on
first use, from a one-line spec of what it couples: it is the unique such row
exact on polynomials through degree 8 (standard: local truncation error h^9,
second-order solver) or 12 (improved: h^13, fifth order with the optimal
parameter family).  The exact rational coefficients (several exceed 64-bit
integer range) are rounded to floats once per mode.  The interior stencil
is exact through degree 8 (degree 12 on the optimal family).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cascade import IvpProblem
from .spline_params import SplineParams, validate

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
                      + sum(b * h^m * u_m for m, b in init_terms)
                      + y0_seventh * h^7 * y^(7)(a) ]

    y^(7)(a) is not part of the initial data; it is recovered from the ODE
    as g(a) - f(a) * u_0 when the row is assembled.
    """

    u_terms: tuple[tuple[int, Fraction], ...]
    y_terms: tuple[tuple[int, Fraction], ...]
    init_terms: tuple[tuple[int, Fraction], ...]
    y0_seventh: Fraction


#: y-side of the interior stencil: 120 * binomial weights of the seventh
#: forward difference.
INTERIOR_Y_WEIGHTS = (-120, 840, -2520, 4200, -4200, 2520, -840, 120)
_INTERIOR_Y_WEIGHTS = np.array(INTERIOR_Y_WEIGHTS, dtype=float)


class _RowSpec(NamedTuple):
    """Pattern of one end row; :func:`_derive_row` turns it into the row."""

    u: tuple[int, ...]     # U indices; the first and last weights are 1
    y: range               # knot indices
    init: int              # init_terms cover u_1..u_init (init <= 6)
    y7: bool = False       # whether the row has an h^7 y^(7)(a) term


#: Per mode: the degree through which every end row is exact, and the rows.
_END_ROW_SPECS = {
    EndConditionMode.STANDARD: (8, (
        _RowSpec((0, 1, 4), range(0, 4), 4),
        _RowSpec((1, 2, 5), range(1, 4), 5),
        _RowSpec((2, 3, 6), range(2, 5), 5),
        _RowSpec((3, 7), range(3, 6), 6),
        _RowSpec((4, 8), range(4, 7), 6),
        _RowSpec((5, 9), range(5, 8), 6),
    )),
    EndConditionMode.IMPROVED: (12, (
        _RowSpec((0, 1, 2, 3, 4, 5), range(0, 6), 2, y7=True),
        _RowSpec((1, 2, 3, 4, 5, 6), range(1, 7), 3),
        _RowSpec((2, 3, 4, 5, 7), range(2, 8), 4),
        _RowSpec((3, 4, 6, 7), range(3, 9), 5),
        _RowSpec((4, 7, 9), range(4, 10), 6),
        _RowSpec((5, 10), range(5, 11), 6, y7=True),
    )),
}


def _derive_row(spec: _RowSpec, degree: int) -> EndRow:
    """The unique row of pattern ``spec`` that is exact on t^0..t^degree.

    At h = 1 and a = 0 the row is exact on y = t^d when

        sum c_j * D^7 t^d (j) - sum q_j * j^d = m! * b_m [d = m] + 7! * e [d = 7]

    for U weights c_j, knot weights q_j, init weights b_m and y^(7)(a)
    weight e.  Each b_m and e enters one equation only, so the others form
    a square integer system in the free c_j and the q_j.  Fraction-free
    (Bareiss) Gauss-Jordan elimination solves it with exact integer
    divisions; the b_m and e are then read off their own equations.
    """
    free = spec.u[1:-1]
    read_off = set(range(1, spec.init + 1)) | ({7} if spec.y7 else set())
    aug = [[_monomial_derivative(d, 7, j) for j in free] + [-j**d for j in spec.y]
           + [-sum(_monomial_derivative(d, 7, j) for j in (spec.u[0], spec.u[-1]))]
           for d in range(degree + 1) if d not in read_off]
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

    def gap(d: int) -> Fraction:
        return (sum(cj * _monomial_derivative(d, 7, j) for j, cj in c.items())
                - sum(qj * j**d for j, qj in q.items()))

    return EndRow(
        u_terms=tuple(c.items()),
        y_terms=tuple(q.items()),
        init_terms=tuple((m, gap(m) / math.factorial(m)) for m in range(1, spec.init + 1)),
        y0_seventh=gap(7) / math.factorial(7) if spec.y7 else Fraction(0),
    )


@functools.cache
def _end_rows(mode: EndConditionMode) -> tuple[EndRow, ...]:
    degree, specs = _END_ROW_SPECS[mode]
    return tuple(_derive_row(spec, degree) for spec in specs)


@functools.cache
def _float_end_rows(mode: EndConditionMode):
    """The end rows of ``mode`` rounded to float, in the layout ``build`` uses.

    Returns their U and knot weights as two read-only (6, min_knots + 1)
    arrays (zero where a row has none) and, per row, the float (j, c) U
    terms, (m, b) init terms and y^(7)(a) weight of its right-hand side.
    """
    rows = _end_rows(mode)
    u = np.zeros((len(rows), min_knots(mode) + 1))
    y = np.zeros_like(u)
    for k, row in enumerate(rows):
        for j, c in row.u_terms:
            u[k, j] = float(c)
        for j, q in row.y_terms:
            y[k, j] = float(q)
    u.flags.writeable = y.flags.writeable = False   # shared by every build
    rhs = tuple((tuple((j, float(c)) for j, c in row.u_terms),
                 tuple((m, float(b)) for m, b in row.init_terms),
                 float(row.y0_seventh)) for row in rows)
    return u, y, rhs


def min_knots(mode: EndConditionMode) -> int:
    """Highest knot index the end rows of ``mode`` reference; the smallest admissible n."""
    return max(max(spec.u[-1], spec.y[-1]) for spec in _END_ROW_SPECS[mode][1])


@dataclass
class LinearSystem:
    """Dense n x n system A y = b for the knot values y_1..y_n."""

    matrix: np.ndarray
    rhs: np.ndarray
    grid: np.ndarray
    h: float
    mode: EndConditionMode
    params: SplineParams
    y0: float


def build(problem: IvpProblem, params: SplineParams, mode: EndConditionMode,
          n: int) -> LinearSystem:
    """Assemble the system for ``n`` subintervals.

    Requires ``n >= min_knots(mode)`` (the end rows reach that far into the
    grid) and a parameter set passing :func:`spline_params.validate`.  The
    seventh-order problem is the only one the stencil encodes.
    """
    if problem.order != 7:
        raise ValueError(f"spline assembly requires a 7th order problem, got order {problem.order}")
    validate(params)
    least = min_knots(mode)
    if n < least:
        raise ValueError(f"{mode.value} end conditions need n >= {least}, got n={n}")

    a, b = problem.a, problem.b
    h = (b - a) / n
    grid = a + h * np.arange(n + 1)
    fv = problem.f.evaluate(grid)
    gv = problem.g.evaluate(grid)
    u = problem.u
    h7 = h**7

    # Row k of ``work`` is equation k over the knot values y_0..y_n; column 0
    # (y_0 = u_0 is data) moves to the right-hand side at the end, and the
    # matrix is the view of columns 1..n.
    work = np.zeros((n, n + 1))
    rhs = np.zeros(n)

    end_u, end_y, end_rhs = _float_end_rows(mode)
    width = end_u.shape[1]
    # U terms first, then knot terms: the order of the row-at-a-time formula
    work[:6, :width] = (0.0 - end_u * fv[:width]) - end_y / h7
    g = gv[:width].tolist()
    for k, (u_terms, init_terms, y7) in enumerate(end_rhs):
        r = 0.0
        for j, c in u_terms:
            r -= c * g[j]
        for m, coeff in init_terms:
            r += coeff * h ** (m - 7) * u[m]
        if y7:
            r += y7 * (g[0] - fv[0] * u[0])
        rhs[k] = r

    # Interior row 6 + k (knot i = 7 + k) couples knots k..k+7 with stencil
    # weight j on knot k + j; the right-hand side folds the eight g terms in
    # the order j = 0..7.
    knots = np.arange(n - 6)[:, None] + np.arange(8)
    half = params.as_floats()
    weights = np.array(half + half[::-1]) * h7
    work[6 + knots[:, :1], knots] = fv[knots] * -weights - _INTERIOR_Y_WEIGHTS
    rhs[6:] = np.subtract.reduce(gv[knots] * weights, axis=1, initial=0.0)
    rhs -= work[:, 0] * u[0]

    return LinearSystem(matrix=work[:, 1:], rhs=rhs, grid=grid, h=h, mode=mode,
                        params=params, y0=u[0])


def _monomial_derivative(degree: int, order: int, t: int | Fraction) -> int | Fraction:
    """order-th derivative of (t - a)^degree evaluated at offset ``t`` from a.

    Exact for an int or Fraction ``t``; the result has the type of ``t``.
    """
    return math.perm(degree, order) * t ** (degree - order) if order <= degree else 0 * t


def row_residual(problem: IvpProblem, params: SplineParams, mode: EndConditionMode,
                 degree: int, n: int, row: int) -> Fraction:
    """Exact residual of one row on the sample y(t) = (t - a)^degree with f = 0.

    With f identically zero, U_i is exactly y^(7)(t_i) for the sampled
    polynomial, so the residual (U-side minus knot-value side) isolates the
    row's truncation behaviour.  ``row`` 1..6 selects an end-condition row,
    ``row`` in 7..n an interior row.  All arithmetic is exact: the grid step
    is formed from the dyadic rationals of the interval endpoints, so a zero
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
        lhs = sum((c * _monomial_derivative(degree, 7, j * h) for j, c in er.u_terms),
                  start=Fraction(0))
        bracket = sum((q * _monomial_derivative(degree, 0, j * h) for j, q in er.y_terms),
                      start=Fraction(0))
        bracket += sum((coeff * h**m * _monomial_derivative(degree, m, Fraction(0))
                        for m, coeff in er.init_terms), start=Fraction(0))
        bracket += er.y0_seventh * h**7 * _monomial_derivative(degree, 7, Fraction(0))
        return lhs - bracket / h**7

    al, be, ga, de = (Fraction(v) for v in
                      (params.alpha, params.beta, params.gamma, params.delta))
    stencil = (al, be, ga, de, de, ga, be, al)
    lhs = sum((stencil[j] * h**7 * _monomial_derivative(degree, 7, (row - 7 + j) * h)
               for j in range(8)), start=Fraction(0))
    rhs = sum((INTERIOR_Y_WEIGHTS[j] * _monomial_derivative(degree, 0, (row - 7 + j) * h)
               for j in range(8)), start=Fraction(0))
    return lhs - rhs
