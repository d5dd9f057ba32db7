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
integer range) are reduced to floats once per build.  The interior stencil
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

    A = np.zeros((n, n))
    rhs = np.zeros(n)

    def install(k: int, work: np.ndarray, r: float) -> None:
        # y_0 = u_0 is data, not an unknown.
        r -= work[0] * u[0]
        A[k, :] = work[1:]
        rhs[k] = r

    for k, row in enumerate(_end_rows(mode)):
        work = np.zeros(n + 1)
        r = 0.0
        for j, c in row.u_terms:
            c = float(c)
            work[j] -= c * fv[j]
            r -= c * gv[j]
        for j, q in row.y_terms:
            work[j] -= float(q) / h7
        for m, coeff in row.init_terms:
            r += float(coeff) * h ** (m - 7) * u[m]
        if row.y0_seventh:
            r += float(row.y0_seventh) * (gv[0] - fv[0] * u[0])
        install(k, work, r)

    al, be, ga, de = params.as_floats()
    stencil = (al, be, ga, de, de, ga, be, al)
    for i in range(7, n + 1):
        work = np.zeros(n + 1)
        r = 0.0
        for j in range(8):
            col = i - 7 + j
            c = stencil[j] * h7
            work[col] -= c * fv[col]
            r -= c * gv[col]
            work[col] -= INTERIOR_Y_WEIGHTS[j]
        install(6 + (i - 7), work, r)

    return LinearSystem(matrix=A, rhs=rhs, grid=grid, h=h, mode=mode,
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
