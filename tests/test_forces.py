import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heptaspline.forces import (_TRIG_KINDS, ForceExpr, ForceTerm, ParseError, parse, tabulate,
                                tabulate_grid)


def random_expr(rng: random.Random, max_terms: int = 4) -> ForceExpr:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        trig = rng.choice(["none", "sin", "cos"])
        terms.append(ForceTerm(
            coeff=rng.uniform(-2, 2),
            poly_power=rng.randint(0, 3),
            exp_rate=rng.choice([0.0, rng.uniform(-2, 2)]),
            trig=trig,
            trig_freq=0.0 if trig == "none" else rng.uniform(-2, 2),
            trig_phase=0.0 if trig == "none" else rng.uniform(-1, 1),
        ))
    return ForceExpr(tuple(terms))


class TestEvaluate:
    def test_zero_expression(self):
        assert ForceExpr.zero().evaluate(0.7) == 0.0

    def test_two_term_exponential_forcing_at_origin(self):
        # -7 e^t (5 + 2t) written as -35 e^t - 14 t e^t
        expr = ForceExpr((ForceTerm(-35.0, 0, 1.0), ForceTerm(-14.0, 1, 1.0)))
        assert expr.evaluate(0.0) == -35.0

    def test_quadratic_window_times_sine_has_root_at_one(self):
        expr = parse("t^2*sin(t) - sin(t)")
        assert expr.evaluate(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_array_evaluation_matches_scalar(self):
        expr = parse("2*t*exp(-t) + cos(3*t + 0.5)")
        ts = np.linspace(-1, 1, 7)
        vals = expr.evaluate(ts)
        assert vals.shape == ts.shape
        for t, v in zip(ts, vals):
            assert expr.evaluate(float(t)) == pytest.approx(v, rel=1e-15)

    def test_term_on_integer_input_is_evaluated_in_float(self):
        # np.power(10, 30) in int64 wraps around to 5.077e18
        assert ForceTerm(1.0, 30).evaluate(10) == 1e30
        got = ForceTerm(2.0, 3).evaluate(np.arange(3))
        assert got.dtype == np.float64 and got.tolist() == [0.0, 2.0, 16.0]

    def test_constant_term_takes_the_shape_of_t(self):
        got = ForceTerm(2.0).evaluate(np.arange(3))
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.tolist() == [2.0, 2.0, 2.0]
        assert ForceTerm(2.0).evaluate(np.zeros((2, 0))).shape == (2, 0)
        scalar = ForceTerm(-3.5).evaluate(0.25)
        assert type(scalar) is np.float64 and scalar == -3.5
        assert type(scalar) is type(ForceTerm(-3.5, 1).evaluate(0.25))


def reference_evaluate(expr: ForceExpr, t):
    """``ForceExpr.evaluate`` as the per-term fold: 0 + the terms' own values."""
    tt = np.asarray(t, dtype=float)
    total = np.zeros(tt.shape)
    for term in expr.terms:
        total = total + term.evaluate(tt)
    return float(total) if tt.ndim == 0 else total


@st.composite
def shared_factor_exprs(draw):
    """Up to 8 terms drawing on a few powers, exp rates and (freq, phase) pairs,
    so that factors repeat and a pair carries both sin and cos."""
    powers = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    rates = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=2))
    waves = draw(st.lists(st.tuples(st.floats(-50, 50), st.floats(-10, 10)), min_size=1,
                          max_size=2))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        trig = draw(st.sampled_from(_TRIG_KINDS))
        freq, phase = (0.0, 0.0) if trig == "none" else draw(st.sampled_from(waves))
        terms.append(ForceTerm(draw(st.floats(-1e3, 1e3)), draw(st.sampled_from(powers)),
                               draw(st.sampled_from([0.0, *rates])), trig, freq, phase))
    return ForceExpr(tuple(terms))


POINTS = st.floats(-400, 400)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def printable_exprs(draw):
    """0-5 terms with finite data and powers 0-12, given as int or float.
    Coefficients stay below 1e307 in magnitude, so that like terms merge to
    a finite sum."""
    terms = []
    powers = st.integers(0, 12)
    for _ in range(draw(st.integers(0, 5))):
        trig = draw(st.sampled_from(_TRIG_KINDS))
        wave = (0.0, 0.0) if trig == "none" else (draw(FINITE), draw(FINITE))
        terms.append(ForceTerm(draw(st.floats(-1e307, 1e307)),
                               draw(powers | powers.map(float)),
                               draw(FINITE), trig, *wave))
    return ForceExpr(tuple(terms))


class TestSharedFactors:
    @settings(max_examples=300, deadline=None)
    @given(expr=shared_factor_exprs(), t=st.one_of(POINTS, st.lists(POINTS, max_size=40)))
    @example(expr=parse("t^2*sin(3*t + 1) - cos(3*t + 1) + 2*t^2*exp(t)*cos(3*t + 1)"),
             t=[0.0, -0.0, 0.5, 1.0])
    @example(expr=parse("exp(3*t) - t*exp(3*t)"), t=[300.0, 400.0])    # inf - inf = nan
    # an exp rate equal in value to a power
    @example(expr=parse("t^2 + exp(2*t) + t^2*exp(2*t)"), t=[0.5, 1.5, -2.0])
    # a rate equal to a trig frequency, and sin and cos of one argument
    @example(expr=parse("exp(3*t)*sin(3*t) + t^3*cos(3*t) + exp(3*t)"), t=[0.5, 1.5, -2.0])
    def test_evaluate_is_the_per_term_fold_bit_for_bit(self, expr, t):
        with np.errstate(all="ignore"):
            got, want = expr.evaluate(t), reference_evaluate(expr, t)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_evaluate_keeps_nothing_on_the_expression(self):
        expr = parse("t^2*sin(3*t + 1) + exp(2*t)*cos(3*t + 1)")
        expr.evaluate(np.linspace(0, 1, 5))
        expr.evaluate(0.5)
        assert list(vars(expr)) == ["terms"]

    def test_tabulate_names_the_force_and_first_bad_t_with_shared_factors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^force g\(t\) = inf at t = 0\.9 "):
                tabulate(parse("exp(800*t) + 3*t*exp(800*t)"), np.array([0.0, 0.9, 1.0]), "g")
            with pytest.raises(ValueError, match=r"^force F_1\(t\) = nan at t = 1\.0 "):
                tabulate(parse("exp(800*t) - t*exp(800*t)"), np.array([0.0, 1.0]), "F_1")


class TestParseLikeTerms:
    @pytest.mark.parametrize("text", ["1e308*t + t^2 + 1e308*t",
                                      "-1.7e308*exp(t) - t + 1e308*exp(t) - 1.7e308*exp(t)"])
    def test_like_term_overflow_keeps_its_position(self, text):
        # the position of the term whose addition overflows: the last one
        with pytest.raises(ParseError, match="like terms") as err:
            parse(text)
        assert err.value.position == text.rindex(" ") + 1


class TestTabulate:
    def test_finite_table_is_evaluate(self):
        expr = parse("2*t*exp(-t) + cos(3*t + 0.5)")
        ts = np.linspace(-1, 1, 7)
        assert tabulate(expr, ts, "f").tobytes() == expr.evaluate(ts).tobytes()

    @pytest.mark.parametrize("text,grid,message", [
        ("exp(800*t)", (0.0, 0.5, 0.9, 1.0), "= inf at t = 0.9 "),         # overflow
        ("t^400*exp(-800*t)", (0.0, 0.5, 6.0, 7.0), "= nan at t = 6.0 "),  # inf * 0
    ])
    def test_first_bad_point_named_without_warning(self, text, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                tabulate(parse(text), np.array(grid), "L3")
        assert str(info.value).startswith("force L3(t) " + message)


#: Grid sizes around the block widths of the angle addition, and the
#: half-step grid of a 10 000-step RK run.
GRID_COUNTS = st.one_of(st.just(3), st.just(20_001),
                        st.integers(2, 150).flatmap(lambda k: st.sampled_from([k * k - 1, k * k,
                                                                               k * k + 1])))


@st.composite
def force_lists(draw):
    """1-4 forces whose terms share a few rates and (freq, phase) pairs."""
    rates = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=2))
    waves = draw(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                          min_size=1, max_size=3))
    forces = []
    for _ in range(draw(st.integers(1, 4))):
        terms = []
        for _ in range(draw(st.integers(0, 4))):
            trig = draw(st.sampled_from(["none", "sin", "cos"]))
            freq, phase = (0.0, 0.0) if trig == "none" else draw(st.sampled_from(waves))
            terms.append(ForceTerm(draw(st.floats(-10, 10)), draw(st.integers(0, 6)),
                                   draw(st.sampled_from([0.0, *rates])), trig, freq, phase))
        forces.append(ForceExpr(tuple(terms)))
    return forces


def rounding_bound(force, t, start, step):
    """How far ``tabulate_grid`` may stray from ``evaluate``: 8 ulps of the sum
    over terms of |coeff t^p exp(r t)| (1 + |arg|), the argument's rounding
    bounded through |freq| (|start| + |step| i) + |phase|, plus 8 units of
    underflow per term, grown by the factors applied after it."""
    reach = abs(start) + abs(step) * np.arange(t.size)
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    total = np.zeros(t.shape)
    for term in force.terms:
        growth = np.exp(term.exp_rate * t)
        size = abs(term.coeff) * np.abs(t) ** term.poly_power * growth
        total += size * (1.0 + abs(term.trig_freq) * reach + abs(term.trig_phase)) * (8 * eps)
        total += 8 * eta * max(1.0, abs(term.coeff)) * np.maximum(1.0, growth)
    return total


class TestTabulateGrid:
    @settings(max_examples=150, deadline=None)
    @given(forces=force_lists(), start=st.floats(-5, 5), length=st.floats(1e-3, 10),
           count=GRID_COUNTS)
    @example(forces=[parse("t^6*exp(2*t)*sin(900*t + 700)"), parse("cos(900*t + 700) - 3")],
             start=-5.0, length=10.0, count=20_001)
    @example(forces=[parse("2*t^3*sin(0*t + 2)")], start=6.761596128445414e-108, length=1.0,
             count=3)                                   # t^3 underflows to a subnormal
    @example(forces=[parse("2.2250738585e-313*t^4*sin(228*t)")], start=0.0, length=5.0,
             count=20_001)                              # subnormal terms
    def test_matches_pointwise_evaluate(self, forces, start, length, count):
        step = length / (count - 1)
        t = start + step * np.arange(count)
        table = tabulate_grid(forces, [f"L{k}" for k in range(len(forces))], start, step, count)
        assert table.shape == (count, len(forces)) and table.flags.c_contiguous
        for k, force in enumerate(forces):
            want = np.broadcast_to(force.evaluate(t), t.shape)
            assert np.all(np.abs(table[:, k] - want) <= rounding_bound(force, t, start, step))

    def test_empty_and_zero_forces(self):
        table = tabulate_grid([ForceExpr.zero(), ForceExpr.zero()], ["L1", "L2"], 0.0, 0.1, 5)
        assert table.shape == (5, 2) and not table.any()

    def test_constant_column_is_exact(self):
        table = tabulate_grid([parse("sin(3*t) + t^2"), ForceExpr.constant(-0.1)],
                              ["g", "f"], 0.0, 0.5e-4, 20_001)
        assert np.all(table[:, 1] == -0.1)

    def test_first_force_not_finite_is_named(self):
        # L1's column would read t*1 + inf*0 = NaN in the basis product, so the
        # forces are checked one by one, in order.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^force L2\(t\) = inf at t = 0\.8875"):
                tabulate_grid([parse("t"), parse("exp(800*t)")], ["L1", "L2"], 0.0, 0.0125, 81)

    def test_basis_overflow_of_a_finite_force_falls_back(self):
        # t^100 * exp(4.6 t) overflows at t = 100, but the coefficient keeps
        # the force itself finite there.
        force = parse("1e-300*t^100*exp(4.6*t)")
        t = 99.0 + 0.5 * np.arange(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = tabulate_grid([force], ["f"], 99.0, 0.5, 3)
        assert table[:, 0].tobytes() == tabulate(force, t, "f").tobytes()


class TestDerivative:
    def test_product_rule_t_exp(self):
        expr = ForceExpr((ForceTerm(1.0, 1, 1.0),))          # t e^t
        d = expr.derivative()
        expected = ForceExpr((ForceTerm(1.0, 0, 1.0), ForceTerm(1.0, 1, 1.0)))
        assert d == expected

    def test_second_derivative_of_sine(self):
        expr = parse("sin(t)")
        d2 = expr.derivative(2)
        assert d2 == parse("-sin(t)")

    def test_sixth_derivative_of_t6_is_constant_720(self):
        d6 = parse("t^6").derivative(6)
        assert d6 == ForceExpr.constant(720.0)
        assert d6.evaluate(0.3) == 720.0

    def test_order_zero_is_identity(self):
        expr = parse("t^2*cos(2*t)")
        assert expr.derivative(0) == expr

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            parse("t").derivative(-1)

    def test_matches_central_difference(self):
        rng = random.Random(42)
        h = 1e-5
        for _ in range(25):
            expr = random_expr(rng)
            d = expr.derivative()
            t = rng.uniform(-1.5, 1.5)
            fd = (expr.evaluate(t + h) - expr.evaluate(t - h)) / (2 * h)
            exact = d.evaluate(t)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)

    def test_closure_under_differentiation_round_trips(self):
        rng = random.Random(7)
        for _ in range(15):
            expr = random_expr(rng)
            d = expr.derivative(rng.randint(1, 4))
            reparsed = parse(str(d))
            assert reparsed == d
            t = rng.uniform(-1, 1)
            assert reparsed.evaluate(t) == pytest.approx(d.evaluate(t), rel=1e-12, abs=1e-12)


class TestAlgebra:
    def test_linearity_of_evaluation(self):
        rng = random.Random(3)
        for _ in range(25):
            e1, e2 = random_expr(rng), random_expr(rng)
            t = rng.uniform(-2, 2)
            lhs = (e1 + e2).evaluate(t)
            rhs = e1.evaluate(t) + e2.evaluate(t)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_like_terms_merge(self):
        expr = ForceExpr((ForceTerm(2.0, 1, 1.0), ForceTerm(3.0, 1, 1.0)))
        assert expr.terms == (ForceTerm(5.0, 1, 1.0),)

    def test_exact_cancellation_yields_zero(self):
        expr = parse("sin(t)") - parse("sin(t)")
        assert expr.is_zero
        assert str(expr) == "0"

    def test_scalar_multiplication(self):
        expr = 3.0 * parse("t^2")
        assert expr.evaluate(2.0) == 12.0

    def test_printing_is_sorted_and_deterministic(self):
        e1 = parse("sin(t) + t^2 + exp(t)")
        e2 = parse("exp(t) + sin(t) + t^2")
        assert str(e1) == str(e2)


class TestForceTermInvariants:
    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ForceTerm(1.0, -1)

    @pytest.mark.parametrize("power", [1.5, math.nan, math.inf])
    def test_non_integer_power_rejected(self, power):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ForceTerm(1.0, power)

    def test_trig_none_with_frequency_rejected(self):
        with pytest.raises(ValueError):
            ForceTerm(1.0, 0, 0.0, "none", 2.0, 0.0)

    def test_unknown_trig_kind_rejected(self):
        with pytest.raises(ValueError):
            ForceTerm(1.0, 0, 0.0, "tan", 1.0, 0.0)


class TestParse:
    def test_zero_literal(self):
        assert parse("0").is_zero

    def test_two_term_exponential_forcing(self):
        expr = parse("-35*exp(t) - 14*t*exp(t)")
        assert len(expr.terms) == 2
        assert expr.evaluate(0.0) == -35.0
        assert expr.evaluate(1.0) == pytest.approx(-49 * math.e, rel=1e-15)

    def test_window_times_sine(self):
        expr = parse("t^2*sin(t) - sin(t)")
        for t in (-0.7, 0.0, 0.4, 1.3):
            assert expr.evaluate(t) == pytest.approx((t * t - 1) * math.sin(t), rel=1e-14, abs=1e-15)

    def test_whitespace_insignificant(self):
        assert parse(" t ^ 2 * sin( t )-sin(t)") == parse("t^2*sin(t) - sin(t)")

    def test_frequency_and_phase(self):
        expr = parse("cos(2.5*t + 0.25)")
        t = 0.8
        assert expr.evaluate(t) == pytest.approx(math.cos(2.5 * t + 0.25), rel=1e-15)

    def test_negative_slope_argument(self):
        expr = parse("exp(-t) + sin(-2*t - 1)")
        t = 0.3
        assert expr.evaluate(t) == pytest.approx(math.exp(-t) + math.sin(-2 * t - 1), rel=1e-14)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("t^2 + * sin(t)")
        assert err.value.position == 6

    def test_unknown_function_rejected(self):
        with pytest.raises(ParseError, match="unknown function 'tan'"):
            parse("tan(t)")

    @pytest.mark.parametrize("text,position", [("t + 1e400*t", 4), ("1e200*1e200*t", 0),
                                               ("t - exp(1e308*t)*exp(1e308*t)", 4)])
    def test_values_beyond_float_range_rejected(self, text, position):
        with pytest.raises(ParseError, match="float range") as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text,position", [("1e308*t + 1e308*t", 10),
                                               ("t - 1e308*t^2 - 1e308*t^2 + 1", 16)])
    def test_like_terms_summing_beyond_float_range_rejected(self, text, position):
        with pytest.raises(ParseError, match="like terms") as err:
            parse(text)
        assert err.value.position == position

    def test_like_terms_cancelling_from_float_max(self):
        assert parse("1e308*t - 1e308*t").is_zero

    def test_two_trig_factors_rejected(self):
        with pytest.raises(ParseError, match="more than one"):
            parse("sin(t)*cos(t)")

    def test_round_trip_eval_equivalence(self):
        rng = random.Random(11)
        for _ in range(15):
            expr = random_expr(rng)
            again = parse(str(expr))
            t = rng.uniform(-1, 1)
            assert again.evaluate(t) == pytest.approx(expr.evaluate(t), rel=1e-12, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(expr=printable_exprs())
    def test_round_trip_is_exact(self, expr):
        text = str(expr)
        assert parse(text) == expr
        assert str(parse(text)) == text
