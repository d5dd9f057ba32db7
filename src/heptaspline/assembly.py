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
and to the initial data u_0..u_6 and are stored as exact rational
coefficients (several exceed 64-bit integer range), reduced to floats once
per build.  Two end-condition families are available:

* standard: local truncation error of order h^9 (second-order solver);
* improved: local truncation error of order h^12 or better, lifting the
  solver to fifth order when paired with the optimal parameter family.

Every stored coefficient is pinned by the polynomial-exactness tests: each
standard row annihilates polynomials through degree 8, each improved row
through degree 11 (rows built here actually reach 12), and the interior
stencil through degree 8 (degree 12 on the optimal family).
"""

from __future__ import annotations

import enum
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


F = Fraction

#: y-side of the interior stencil: 120 * binomial weights of the seventh
#: forward difference.
INTERIOR_Y_WEIGHTS = (-120, 840, -2520, 4200, -4200, 2520, -840, 120)

_STANDARD_END_ROWS: tuple[EndRow, ...] = (
    EndRow(
        u_terms=((0, F(1)), (1, F(-10)), (4, F(1))),
        y_terms=((0, F(512540, 27)), (1, F(-20160)), (2, F(1260)), (3, F(-2240, 27))),
        init_terms=((1, F(161000, 9)), (2, F(23800, 3)), (3, F(6160, 3)), (4, F(280))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((1, F(1)), (2, F(-30666, 8867)), (5, F(1))),
        y_terms=((1, F(-957600, 8867)), (2, F(1048320, 8867)), (3, F(-90720, 8867))),
        init_terms=((1, F(-866880, 8867)), (2, F(-1209600, 8867)),
                    (3, F(-829920, 8867)), (4, F(-352800, 8867)), (5, F(-87864, 8867))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((2, F(1)), (3, F(-278026, 94221)), (6, F(1))),
        y_terms=((2, F(-67340, 10469)), (3, F(80640, 10469)), (4, F(-700, 551))),
        init_terms=((1, F(-54040, 10469)), (2, F(-4200, 361)), (3, F(-20720, 1653)),
                    (4, F(-85400, 10469)), (5, F(-95536, 31407))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((3, F(1)), (7, F(1))),
        y_terms=((3, F(10808537040, 487056529)), (4, F(-13373418240, 487056529)),
                 (5, F(2564881200, 487056529))),
        init_terms=((1, F(8243655840, 487056529)), (2, F(26287914240, 487056529)),
                    (3, F(40576352880, 487056529)), (4, F(39377200800, 487056529)),
                    (5, F(25438766892, 487056529)), (6, F(9474762304, 487056529))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((4, F(1)), (8, F(1))),
        y_terms=((4, F(2645350155, 436783036)), (5, F(-869117760, 109195759)),
                 (6, F(831120885, 436783036))),
        init_terms=((1, F(31279815, 7530742)), (2, F(3666455415, 218391518)),
                    (3, F(3572264955, 109195759)), (4, F(8717751945, 218391518)),
                    (5, F(3525702999, 109195759)), (6, F(1634628387, 109195759))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((5, F(1)), (9, F(1))),
        y_terms=((5, F(132838307280, 61865369749)), (6, F(-183300929280, 61865369749)),
                 (7, F(50462622000, 61865369749))),
        init_terms=((1, F(82375685280, 61865369749)), (2, F(402603647040, 61865369749)),
                    (3, F(946588828080, 61865369749)), (4, F(1390554453120, 61865369749)),
                    (5, F(1350858565644, 61865369749)), (6, F(749461929944, 61865369749))),
        y0_seventh=F(0),
    ),
)

_IMPROVED_END_ROWS: tuple[EndRow, ...] = (
    EndRow(
        u_terms=((0, F(1)), (1, F(-24407, 109)), (2, F(-59362, 109)),
                 (3, F(-10662, 109)), (4, F(-907, 109)), (5, F(1))),
        y_terms=((0, F(66633336, 545)), (1, F(-19958400, 109)), (2, F(9979200, 109)),
                 (3, F(-4435200, 109)), (4, F(1247400, 109)), (5, F(-798336, 545))),
        init_terms=((1, F(9114336, 109)), (2, F(1995840, 109))),
        y0_seventh=F(-80, 109),
    ),
    EndRow(
        u_terms=((1, F(1)), (2, F(202055040421, 554613069)), (3, F(77878525838, 184871023)),
                 (4, F(18661788874, 184871023)), (5, F(-2434662535, 554613069)), (6, F(1))),
        y_terms=((1, F(-4011644165760, 184871023)), (2, F(8861887188000, 184871023)),
                 (3, F(-73815832428800, 1663839207)), (4, F(4618760731200, 184871023)),
                 (5, F(-1470208924800, 184871023)), (6, F(1826678971040, 1663839207))),
        init_terms=((1, F(-4345911046400, 554613069)), (2, F(-1035868310400, 184871023)),
                    (3, F(-183470425600, 184871023))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((2, F(1)), (3, F(-13173366154319505819, 604803696004634)),
                 (4, F(-5923535526089565973, 302401848002317)),
                 (5, F(-2639790737228529743, 604803696004634)), (7, F(1))),
        y_terms=((2, F(25352931909798309915, 43200264000331)),
                 (3, F(-198185856313975120000, 129600792000993)),
                 (4, F(72535593878062755750, 43200264000331)),
                 (5, F(-44672825515677652800, 43200264000331)),
                 (6, F(44958164899589796925, 129600792000993)),
                 (7, F(-2139803134054971840, 43200264000331))),
        init_terms=((1, F(5764036699720950200, 43200264000331)),
                    (2, F(7374675959642702700, 43200264000331)),
                    (3, F(3273172503578299200, 43200264000331)),
                    (4, F(521467194925746900, 43200264000331))),
        y0_seventh=F(0),
    ),
    # Solved from the degree-12 exactness conditions for the sparsity
    # pattern U_3 + c*U_4 + c*U_6 + U_7 | y_3..y_8, u_1..u_5.
    EndRow(
        u_terms=((3, F(1)),
                 (4, F(-2266126612680026537267, 61666447925625915092)),
                 (6, F(-517151260795603682957, 61666447925625915092)),
                 (7, F(1))),
        y_terms=((3, F(6978216292915346880800, 59464074785424989553)),
                 (4, F(-252535070117919383660115, 563807523891436937984)),
                 (5, F(1479400321062422556000, 2202373140200925539)),
                 (6, F(-119706610333023164494055, 237856299141699958212)),
                 (7, F(423111090293216377920, 2202373140200925539)),
                 (8, F(-16922677473303675048045, 563807523891436937984))),
        init_terms=((1, F(-5227327231125729809035, 1268566928755733110464)),
                    (2, F(-2035341656474884899625, 70475940486429617248)),
                    (3, F(-2552069016631436032525, 52856955364822212936)),
                    (4, F(-557447883238834390275, 17618985121607404312)),
                    (5, F(-33985058036341479441, 4404746280401851078))),
        y0_seventh=F(0),
    ),
    EndRow(
        u_terms=((4, F(1)),
                 (7, F(-6169811365491003355386625, 364845537886699795641421)),
                 (9, F(1))),
        y_terms=((4, F(413182203198678792199193360481, 373601830795980590736815104)),
                 (5, F(-1011762526223941981900336800, 364845537886699795641421)),
                 (6, F(998387082478934194463004566965, 354629862825872201363461212)),
                 (7, F(-566429213407879867786917120, 364845537886699795641421)),
                 (8, F(173230355267937275186019127455, 373601830795980590736815104)),
                 (9, F(-5254626822196644195075230752, 88657465706468050340865303))),
        init_terms=((1, F(1828802733123508354716945025585, 7565437073618606962420505856)),
                    (2, F(54937023892836663800655898465, 74170951702143205513926528)),
                    (3, F(319183920456421230207708911935, 315226544734108623434187744)),
                    (4, F(81879551659139637198985554365, 105075514911369541144729248)),
                    (5, F(2991554077139003376141526763, 8756292909280795095394104)),
                    (6, F(303485670688565607390252013, 4378146454640397547697052))),
        y0_seventh=F(0),
    ),
    # Solved from the degree-12 exactness conditions for the sparsity
    # pattern U_5 + U_10 | y_5..y_10, u_1..u_6 plus an h^7 y^(7)(a) term
    # (same closing term as the first row of this family).
    EndRow(
        u_terms=((5, F(1)), (10, F(1))),
        y_terms=((5, F(-11329661875965268116467664576, 10518956107243136242421875)),
                 (6, F(2671289475279448800965248025, 1046981154431009630989728)),
                 (7, F(-319041765526858283926800, 134642638172712143903)),
                 (8, F(157510552252248817231050, 134642638172712143903)),
                 (9, F(-10130186704138009157597200, 32718161075969050968429)),
                 (10, F(11772178255017535843225032057, 336606595431780359757500000))),
        init_terms=((1, F(-32004630544339100729519758943, 123932428318064587001625000)),
                    (2, F(-1086811999946091821986024973, 1032770235983871558346875)),
                    (3, F(-18083416386562810579137689701, 9088378076658069713452500)),
                    (4, F(-68392805085196565784778898, 30294593588860232378175)),
                    (5, F(-331569804097316872609274053, 201963957259068215854500)),
                    (6, F(-7443645175519915691163506, 10098197862953410792725))),
        y0_seventh=F(-219458588187453844419603, 1346426381727121439030),
    ),
)

_END_ROWS = {
    EndConditionMode.STANDARD: _STANDARD_END_ROWS,
    EndConditionMode.IMPROVED: _IMPROVED_END_ROWS,
}

#: Highest knot index referenced by the end-condition rows of each mode;
#: also the smallest admissible n.
_MIN_KNOTS = {EndConditionMode.STANDARD: 9, EndConditionMode.IMPROVED: 10}


def min_knots(mode: EndConditionMode) -> int:
    return _MIN_KNOTS[mode]


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
    least = _MIN_KNOTS[mode]
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

    for k, row in enumerate(_END_ROWS[mode]):
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


def _monomial_derivative(degree: int, order: int, t: Fraction) -> Fraction:
    """order-th derivative of (t - a)^degree evaluated at offset ``t`` from a."""
    if order > degree:
        return Fraction(0)
    c = Fraction(math.factorial(degree), math.factorial(degree - order))
    return c * t ** (degree - order) if degree != order else c


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
        er = _END_ROWS[mode][row - 1]
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
