import hashlib
import math
import subprocess
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heptaspline import assembly, spline_params
from heptaspline.assembly import (EndConditionMode, EndRow, LinearSystem, _derive_row, _end_rows,
                                  _RowSpec, build, min_knots, row_residual)
from heptaspline.cascade import IvpProblem
from heptaspline.forces import ForceExpr, ForceTerm, parse
from heptaspline.linsolve import lu_solve
from heptaspline.oracle import BENCHMARKS
from heptaspline.spline_params import SplineParams, optimal_family

#: The paper's published constants of the h^9 y^(9) truncation term of the
#: six standard end-condition rows, in the orientation that treats the
#: knot-value side as positive (the assembled rows measure the opposite one).
STANDARD_END_ROW_H9_CONSTANTS = (-5.778, -6.472, -7.230, -19.288, -25.620, -33.020)

#: y-side of the interior stencil as printed: 120 times the binomial weights
#: of the seventh forward difference.
REFERENCE_Y_WEIGHTS = (-120, 840, -2520, 4200, -4200, 2520, -840, 120)

TAB_PARAMS = [
    SplineParams(F(1, 2), F(19, 2), F(49, 2), F(51, 2)),
    SplineParams(0, 0, 0, 60),
    SplineParams(10, 10, 10, 30),
]


def f_zero_problem(a=0.0, b=1.0) -> IvpProblem:
    return IvpProblem(a, b, ForceExpr.zero(), ForceExpr.zero(), (0.0,) * 7)


class TestBuildContract:
    def test_dimensions_and_grid(self):
        bench = BENCHMARKS[0]
        system = build(bench.problem, TAB_PARAMS[0], EndConditionMode.STANDARD, 12)
        assert system.matrix.shape == (12, 12)
        assert system.rhs.shape == (12,)
        assert len(system.grid) == 13
        assert system.grid[0] == bench.problem.a
        assert system.grid[-1] == pytest.approx(bench.problem.b)

    def test_interior_rows_are_banded(self):
        bench = BENCHMARKS[0]
        n = 16
        system = build(bench.problem, TAB_PARAMS[0], EndConditionMode.STANDARD, n)
        for i in range(7, n + 1):          # knot index of the interior row
            row = system.matrix[6 + (i - 7)]
            cols = np.nonzero(row)[0] + 1  # matrix column j holds knot j+1
            assert cols.min() >= max(1, i - 7)
            assert cols.max() <= i

    def test_exactly_six_end_rows(self):
        bench = BENCHMARKS[0]
        n = 12
        system = build(bench.problem, TAB_PARAMS[0], EndConditionMode.IMPROVED, n)
        assert system.matrix.shape[0] - (n - 6) == 6

    @pytest.mark.parametrize("mode,bad_n", [(EndConditionMode.STANDARD, 8),
                                            (EndConditionMode.IMPROVED, 9)])
    def test_too_few_knots_rejected(self, mode, bad_n):
        with pytest.raises(ValueError, match="n >="):
            build(BENCHMARKS[0].problem, TAB_PARAMS[0], mode, bad_n)

    def test_min_knots_values(self):
        assert min_knots(EndConditionMode.STANDARD) == 9
        assert min_knots(EndConditionMode.IMPROVED) == 10

    def test_unvalidated_params_rejected(self):
        with pytest.raises(ValueError, match="60"):
            build(BENCHMARKS[0].problem, SplineParams(1, 1, 1, 1),
                  EndConditionMode.STANDARD, 12)

    @pytest.mark.parametrize("mode", EndConditionMode)
    @pytest.mark.parametrize("f,g,u,b,message", [
        ("1e308", "1", (0.0,) * 7, 1.0, "f reaches 1e"),
        ("1e300", "0", (0.0,) * 7, 100.0, "f reaches 1e"),
        ("0", "1e308", (0.0,) * 7, 1.0, "g reaches 1e"),
        ("0", "1e300", (0.0,) * 7, 100.0, "g reaches 1e"),
        ("0", "0", (0.0,) * 6 + (1e308,), 1.0, "initial data"),
        ("0", "0", (1e308,) + (0.0,) * 6, 1e-3, "initial data"),
    ])
    def test_system_beyond_float_range_rejected_before_filling(self, mode, f, g, u, b, message):
        problem = IvpProblem(0.0, b, parse(f), parse(g), u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                build(problem, TAB_PARAMS[0], mode, 12)

    def test_non_seventh_order_problem_rejected(self):
        problem = IvpProblem(0.0, 1.0, ForceExpr.zero(), ForceExpr.zero(), (0.0,) * 5)
        with pytest.raises(ValueError, match="7th order"):
            build(problem, TAB_PARAMS[0], EndConditionMode.STANDARD, 12)


def former_layout(row: EndRow) -> tuple:
    """``row`` in the four-field layout the pinned digests were taken in:
    u_terms, y_terms, init_terms through u_6, and the u_7 weight apart."""
    seventh = dict(row.init_terms).get(7, F(0))
    return (row.u_terms, row.y_terms, tuple(t for t in row.init_terms if t[0] < 7), seventh)


class TestDerivedEndRows:
    """The rows derived from the specs equal the formerly transcribed tables."""

    @pytest.mark.parametrize("mode,digest", [
        (EndConditionMode.STANDARD,
         "0dca7282b130e02ba43acfeb78b533f4471e19c5eb0f0ba409b5944aa0e9f478"),
        (EndConditionMode.IMPROVED,
         "04dcef386ce2651122b483e23620540b41933c4e4b8d3076f85a2699cb7ad7ef"),
    ])
    def test_rows_bit_identical_to_published_tables(self, mode, digest):
        text = "\n".join(repr(former_layout(r)) for r in _end_rows(mode))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_literal_coefficients(self):
        standard = _end_rows(EndConditionMode.STANDARD)
        improved = _end_rows(EndConditionMode.IMPROVED)
        assert standard[0].u_terms == ((0, 1), (1, -10), (4, 1))
        assert standard[0].y_terms[0] == (0, F(512540, 27))
        assert standard[5].init_terms[-1] == (6, F(749461929944, 61865369749))
        assert improved[0].init_terms[-1] == (7, F(-80, 109))
        assert improved[3].u_terms[1] == (4, F(-2266126612680026537267, 61666447925625915092))
        assert improved[5].init_terms[-1] == \
            (7, F(-219458588187453844419603, 1346426381727121439030))
        assert all(m < 7 for r in standard + improved[1:5] for m, _ in r.init_terms)

    def test_spec_with_mismatched_init_rejected(self):
        # Reading u_1..u_3 off (not u_1..u_4) leaves 6 conditions on 5 unknowns.
        with pytest.raises(ValueError, match="gives 6 conditions for 5 unknowns"):
            _derive_row(_RowSpec((0, 1, 4), range(0, 4), range(1, 4)), 8)

    def test_derived_on_first_use_and_cached(self):
        probe = ("import heptaspline; from heptaspline.assembly import _end_rows; "
                 "print(_end_rows.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "0"
        assert _end_rows(EndConditionMode.IMPROVED) is _end_rows(EndConditionMode.IMPROVED)


def _reference_build(problem: IvpProblem, params: SplineParams, mode: EndConditionMode,
                     n: int) -> LinearSystem:
    """Row-at-a-time assembly: each row as a dense work row over y_0..y_n."""
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
            um = u[m] if m < 7 else gv[0] - fv[0] * u[0]     # u_7 = y^(7)(a) from the ODE
            r += float(coeff) * h ** (m - 7) * um
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
            work[col] -= REFERENCE_Y_WEIGHTS[j]
        install(6 + (i - 7), work, r)

    return LinearSystem(matrix=A, rhs=rhs, grid=grid, y0=u[0])


def assert_bit_identical(x: np.ndarray, y: np.ndarray) -> None:
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def force_texts(draw) -> str:
    """Text of a random force: 1-3 terms c*t^m*exp(r*t)*sin|cos(w*t + phi)."""
    def num():
        return repr(draw(st.floats(0.0625, 20.0)))

    def arg():
        return ("-" if draw(st.booleans()) else "") + num() + "*t"

    text = ""
    for _ in range(draw(st.integers(1, 3))):
        factors = [num()]
        if power := draw(st.integers(0, 3)):
            factors.append(f"t^{power}")
        if draw(st.booleans()):
            factors.append(f"exp({arg()})")
        if trig := draw(st.sampled_from(["", "sin", "cos"])):
            factors.append(f"{trig}({arg()} {draw(st.sampled_from('+-'))} {num()})")
        text += (" - " if draw(st.booleans()) else " + ") + "*".join(factors)
    return text


@st.composite
def random_problems(draw) -> IvpProblem:
    a = draw(st.floats(-2.0, 1.0))
    u = draw(st.tuples(*[st.floats(-5.0, 5.0)] * 7))
    return IvpProblem(a, a + draw(st.floats(0.5, 3.0)), parse(draw(force_texts())),
                      parse(draw(force_texts())), u)


#: Parameter sets of the sweep grid: the published columns and optimal_family(30).
SWEEP_PARAMS = (*TAB_PARAMS, optimal_family(30))


class TestAssemblyMatchesRowAtATime:
    """``build`` performs the row-at-a-time formula's float operations in the
    same order, so its systems agree with ``_reference_build`` bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(EndConditionMode), data=st.data(),
           params=st.one_of(st.sampled_from(TAB_PARAMS),
                            st.fractions(-60, 120, max_denominator=8).map(optimal_family)),
           problem=st.one_of(st.sampled_from([bench.problem for bench in BENCHMARKS]),
                             random_problems()))
    def test_bit_identical_to_reference(self, mode, data, params, problem):
        n = data.draw(st.integers(min_knots(mode), 96), label="n")
        fast = build(problem, params, mode, n)
        slow = _reference_build(problem, params, mode, n)
        assert_bit_identical(fast.matrix, slow.matrix)
        assert_bit_identical(fast.rhs, slow.rhs)
        assert_bit_identical(fast.grid, slow.grid)

    def test_sweep_grid_systems_pinned(self):
        # sha256 of every sweep-grid system's matrix and rhs bytes, taken
        # from the row-at-a-time assembly.
        digest = hashlib.sha256()
        for bench in BENCHMARKS:
            for mode in EndConditionMode:
                for params in SWEEP_PARAMS:
                    for n in range(min_knots(mode), 97):
                        system = build(bench.problem, params, mode, n)
                        digest.update(system.matrix.tobytes())
                        digest.update(system.rhs.tobytes())
        assert digest.hexdigest() == \
            "577016d097d8b860ff7dd8bbc882878bc1d5ec43bbb3de8f9b456d9320dab5ec"


class TestPolynomialExactness:
    """Exact-rational residuals pin every row coefficient."""

    def test_interior_y_weights_are_the_printed_ones(self):
        assert spline_params.INTERIOR_Y_WEIGHTS == REFERENCE_Y_WEIGHTS
        assert assembly.INTERIOR_Y_WEIGHTS is spline_params.INTERIOR_Y_WEIGHTS

    @pytest.mark.parametrize("params", TAB_PARAMS)
    @pytest.mark.parametrize("interval", [(0.0, 1.0), (-1.0, 1.0)])
    def test_interior_rows_annihilate_degree_le_8(self, params, interval):
        problem = f_zero_problem(*interval)
        n = 12
        for row in (7, 10, n):
            for degree in range(9):
                assert row_residual(problem, params, EndConditionMode.STANDARD,
                                    degree, n, row) == 0

    @settings(max_examples=25, deadline=None)
    @given(delta=st.fractions(-10**4, 10**4, max_denominator=10**4))
    @example(delta=0)
    @example(delta=30)
    @example(delta=F(51, 2))
    @example(delta=-7)
    def test_interior_rows_on_optimal_family_annihilate_degree_le_12(self, delta):
        problem = f_zero_problem()
        params = optimal_family(delta)
        for degree in range(13):
            assert row_residual(problem, params, EndConditionMode.STANDARD,
                                degree, 12, 9) == 0

    def test_interior_rows_not_exact_beyond_design_order(self):
        problem = f_zero_problem()
        assert row_residual(problem, TAB_PARAMS[0], EndConditionMode.STANDARD,
                            9, 12, 9) != 0
        assert row_residual(problem, optimal_family(30), EndConditionMode.STANDARD,
                            13, 14, 9) != 0

    @pytest.mark.parametrize("row", range(1, 7))
    @pytest.mark.parametrize("interval,n", [((0.0, 1.0), 12), ((-1.0, 1.0), 10)])
    def test_standard_end_rows_annihilate_degree_le_8(self, row, interval, n):
        problem = f_zero_problem(*interval)
        for degree in range(9):
            assert row_residual(problem, TAB_PARAMS[0], EndConditionMode.STANDARD,
                                degree, n, row) == 0

    @pytest.mark.parametrize("row", range(1, 7))
    @pytest.mark.parametrize("interval,n", [((0.0, 1.0), 12), ((-1.0, 1.0), 10)])
    def test_improved_end_rows_annihilate_degree_le_11(self, row, interval, n):
        problem = f_zero_problem(*interval)
        for degree in range(12):
            assert row_residual(problem, TAB_PARAMS[0], EndConditionMode.IMPROVED,
                                degree, n, row) == 0

    @pytest.mark.parametrize("row", range(1, 7))
    def test_improved_end_rows_reach_degree_12(self, row):
        problem = f_zero_problem()
        assert row_residual(problem, TAB_PARAMS[0], EndConditionMode.IMPROVED,
                            12, 12, row) == 0

    def test_degree_seven_balances_both_sides_of_interior_rows(self):
        # y = t^7 gives U identically 5040; each interior row balances at
        # 5040 * 120 * h^7 for any sum-60 parameter set.
        problem = f_zero_problem()
        for params in TAB_PARAMS:
            for row in range(7, 13):
                assert row_residual(problem, params, EndConditionMode.STANDARD,
                                    7, 12, row) == 0

    def test_row_residual_requires_f_zero(self):
        with pytest.raises(ValueError, match="f identically zero"):
            row_residual(BENCHMARKS[0].problem, TAB_PARAMS[0],
                         EndConditionMode.STANDARD, 3, 12, 7)


class TestEndRowTruncationConstants:
    def test_standard_h9_constants_match_published_magnitudes(self):
        # Unit step so the degree-9 residual equals the row constant times 9!.
        # The published constants carry the opposite orientation to the
        # interior expansion, hence the sign flip.
        problem = f_zero_problem(0.0, 12.0)
        for i, published in enumerate(STANDARD_END_ROW_H9_CONSTANTS, start=1):
            measured = row_residual(problem, TAB_PARAMS[0], EndConditionMode.STANDARD,
                                    9, 12, i) / math.factorial(9)
            assert float(measured) == pytest.approx(-published, abs=5e-4)

    def test_interior_h9_constant_matches_c9_formula(self):
        problem = f_zero_problem(0.0, 12.0)
        for params in TAB_PARAMS:
            measured = row_residual(problem, params, EndConditionMode.STANDARD,
                                    9, 12, 9) / math.factorial(9)
            al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
            assert measured == F(1, 2) * (-100 + 25 * al + 13 * be + 5 * ga + de)


class TestFullSystemOnPolynomials:
    """build + solve reproduces polynomial solutions to near roundoff."""

    def poly_problem(self, coeffs: dict[int, float], a: float, b: float) -> tuple[IvpProblem, ForceExpr]:
        exact = ForceExpr(tuple(ForceTerm(c, m) for m, c in coeffs.items()))
        g = exact.derivative(7)
        u = tuple(exact.derivative(m).evaluate(a) for m in range(7))
        return IvpProblem(a, b, ForceExpr.zero(), g, u), exact

    @pytest.mark.parametrize("params", TAB_PARAMS)
    def test_degree_eight_solved_exactly_standard(self, params):
        problem, exact = self.poly_problem({8: 1.0, 3: -2.0, 0: 0.5}, 0.0, 1.0)
        grid = lu_solve(build(problem, params, EndConditionMode.STANDARD, 12))
        err = np.max(np.abs(grid.y - exact.evaluate(grid.t)))
        assert err <= 1e-10

    def test_degree_eleven_solved_exactly_improved(self):
        problem, exact = self.poly_problem({11: 1.0, 5: 1.0}, 0.0, 1.0)
        grid = lu_solve(build(problem, optimal_family(30), EndConditionMode.IMPROVED, 12))
        err = np.max(np.abs(grid.y - exact.evaluate(grid.t)))
        assert err <= 1e-8
