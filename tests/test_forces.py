import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heptaspline.cascade import _BLOCK
from heptaspline.forces import (_TRIG_KINDS, ForceExpr, ForceTerm, ParseError, ShiftBasis, parse,
                                tabulate, tabulate_at)


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


def numbers(floats):
    """``floats`` drawn as float, as np.float64, or as int where integral."""
    return floats | floats.map(np.float64) | floats.map(lambda x: int(x) if x.is_integer() else x)


@st.composite
def printable_exprs(draw):
    """0-5 terms with finite data and powers 0-12, each number given as int,
    float or np.float64.  Coefficients stay below 1e307 in magnitude, so that
    like terms merge to a finite sum."""
    terms = []
    powers = st.integers(0, 12)
    for _ in range(draw(st.integers(0, 5))):
        trig = draw(st.sampled_from(_TRIG_KINDS))
        wave = (0.0, 0.0) if trig == "none" else (draw(numbers(FINITE)), draw(numbers(FINITE)))
        terms.append(ForceTerm(draw(numbers(st.floats(-1e307, 1e307))),
                               draw(powers | powers.map(float)),
                               draw(numbers(FINITE)), trig, *wave))
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
                tabulate([parse("exp(800*t) + 3*t*exp(800*t)")], ["g"],
                         np.array([0.0, 0.9, 1.0]))
            with pytest.raises(ValueError, match=r"^force F_1\(t\) = nan at t = 1\.0 "):
                tabulate([parse("exp(800*t) - t*exp(800*t)")], ["F_1"], np.array([0.0, 1.0]))


class TestParseLikeTerms:
    @pytest.mark.parametrize("text", ["1e308*t + t^2 + 1e308*t",
                                      "-1.7e308*exp(t) - t + 1e308*exp(t) - 1.7e308*exp(t)"])
    def test_like_term_overflow_keeps_its_position(self, text):
        # the position of the term whose addition overflows: the last one
        with pytest.raises(ParseError, match="like terms") as err:
            parse(text)
        assert err.value.position == text.rindex(" ") + 1

    def test_one_force_expr_is_built(self, monkeypatch):
        calls = []
        post_init = ForceExpr.__post_init__

        def counting(self):
            calls.append(len(self.terms))
            post_init(self)

        monkeypatch.setattr(ForceExpr, "__post_init__", counting)
        expr = parse("t + 2*sin(t) - 3*t + t^2")
        assert calls == [4]
        assert str(expr) == "2.0*sin(t) - 2.0*t + t^2"


class TestTabulate:
    def test_finite_table_is_evaluate(self):
        expr = parse("2*t*exp(-t) + cos(3*t + 0.5)")
        ts = np.linspace(-1, 1, 7)
        assert tabulate([expr], ["f"], ts)[0].tobytes() == expr.evaluate(ts).tobytes()

    def test_one_table_per_force_and_the_first_bad_one_named(self):
        forces = [parse("t^2"), parse("exp(800*t)"), parse("t^400*exp(-800*t)")]
        ts = np.array([0.0, 0.5, 1.0])
        tables = tabulate(forces[:1], ["f"], ts) + tabulate(forces[2:], ["g"], ts)
        assert [x.tobytes() for x in tables] == [forces[0].evaluate(ts).tobytes(),
                                                 forces[2].evaluate(ts).tobytes()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^force L2\(t\) = inf at t = 1\.0 "):
                tabulate(forces, ["L1", "L2", "L3"], np.array([0.0, 1.0, 7.0]))

    @pytest.mark.parametrize("text,grid,message", [
        ("exp(800*t)", (0.0, 0.5, 0.9, 1.0), "= inf at t = 0.9 "),         # overflow
        ("t^400*exp(-800*t)", (0.0, 0.5, 6.0, 7.0), "= nan at t = 6.0 "),  # inf * 0
    ])
    def test_first_bad_point_named_without_warning(self, text, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                tabulate([parse(text)], ["L3"], np.array(grid))
        assert str(info.value).startswith("force L3(t) " + message)

    def test_zero_forces_give_zero_columns(self):
        tables = tabulate([ForceExpr.zero(), ForceExpr.zero()], ["L1", "L2"], 0.1 * np.arange(5))
        assert [x.shape for x in tables] == [(5,), (5,)] and not np.any(tables)

    def test_constant_column_is_exact(self):
        tables = tabulate([parse("sin(3*t) + t^2"), ForceExpr.constant(-0.1)], ["g", "f"],
                          0.5e-4 * np.arange(20_001))
        assert np.all(tables[1] == -0.1)

    def test_finite_force_whose_factors_overflow_together_is_kept(self):
        # t^100 * exp(4.6 t) overflows at t = 100, but each factor, applied
        # to the coefficient in turn, keeps the force finite there.
        force = parse("1e-300*t^100*exp(4.6*t)")
        t = 99.0 + 0.5 * np.arange(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = tabulate([force], ["f"], t)[0]
        assert np.isfinite(table).all() and table.tobytes() == force.evaluate(t).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 4),
           t=st.floats(-5, 5, allow_subnormal=True))
    def test_one_point_form_is_tabulate_bit_for_bit(self, seed, count, t):
        rng = random.Random(seed)
        forces = [random_expr(rng) for _ in range(count)]
        names = [f"L{k}" for k in range(count)]
        want = [x[0] for x in tabulate(forces, names, np.array([t]))]
        assert np.array(tabulate_at(forces, names, t)).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("texts,t,message", [
        (("t^2", "exp(800*t)", "t^400*exp(-800*t)"), 1.0, "force L2(t) = inf at t = 1.0 "),
        (("t^2", "t", "t^400*exp(-800*t)"), 7.0, "force L3(t) = nan at t = 7.0 "),
    ])
    def test_one_point_form_names_the_first_bad_force_as_tabulate_does(self, texts, t, message):
        forces, names = [parse(x) for x in texts], ["L1", "L2", "L3"]
        errors = []
        for form in (lambda: tabulate(forces, names, np.array([t])),
                     lambda: tabulate_at(forces, names, t)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    form()
            errors.append(str(info.value))
        assert errors[0] == errors[1] and errors[0].startswith(message)


class TestShiftBasis:
    @settings(max_examples=200, deadline=None)
    @given(terms=st.lists(st.tuples(st.integers(0, 4), st.floats(-3, 3), st.sampled_from(_TRIG_KINDS),
                                    st.floats(-5, 5), st.floats(-1e3, 1e3)), min_size=1, max_size=3),
           t=st.floats(0.05, 5) | st.floats(-5, -0.05), h=st.floats(1e-4, 0.1),
           halves=st.integers(0, 2 * _BLOCK + 1))
    def test_shift_matrix_moves_the_basis_to_the_shifted_point(self, terms, t, h, halves):
        force = ForceExpr(tuple(ForceTerm(1.0, p, r, trig, *((w, phase) if trig != "none" else (0, 0)))
                                for p, r, trig, w, phase in terms))
        basis = ShiftBasis([force])
        tau = 0.5 * h * halves
        shift = basis.shifted([tau], np.eye(len(basis.keys)))[0]       # T_tau^T
        here = basis.values([t])[0]
        want = basis.values([t + tau])[0]
        # A few ulps of the summed magnitudes, grown by the rounding of the
        # argument t + tau through t^q, exp(r t) and the wave's angle.  The
        # angle's rounding moves sin by up to the size of cos and back.
        size = np.abs(here) @ np.abs(shift)
        partner = [basis.keys.index(key[:2] + (3 - key[2],) + key[3:]) if key[2] else i
                   for i, key in enumerate(basis.keys)]
        reach = abs(t) + tau
        growth = 1 + max(p + (abs(r) + abs(w)) * reach + abs(phase) for p, r, _, w, phase in terms)
        bound = 8 * np.finfo(float).eps * np.maximum(size, size[partner]) * growth
        assert np.all(np.abs(here @ shift - want) <= bound)

    def test_forces_are_their_weights_on_the_basis(self):
        forces = [parse("2*t^3*exp(-t)*sin(3*t + 1) - t"), parse("cos(3*t + 1) + 4"),
                  ForceExpr.zero()]
        basis = ShiftBasis(forces)
        t = np.linspace(-2.0, 2.0, 9)
        want = np.stack([force.evaluate(t) for force in forces[:2]] + [np.zeros(9)], axis=1)
        assert np.allclose(basis.values(t) @ basis.weights, want, rtol=1e-14, atol=1e-14)
        # t^0..t^3 times exp(-t) sin and cos of 3t + 1, sin and cos of 3t + 1, 1 and t
        assert len(basis.keys) == 12 and basis.lift_size == 4 * 12 ** 2

    def test_basis_over_budget_is_refused_before_its_powers_are_listed(self):
        # 16 powers times sin and cos of two groups fill the 2^16 entries of
        # each shift array; one more function is refused.  So are 10^20 + 1
        # powers, which could never be listed: the size alone refuses them.
        full = parse("t^15*sin(t) + t^15*exp(t)*sin(t)")
        assert ShiftBasis([full]).lift_size == 16 * 64 ** 2 == 1 << 16
        for force in (full + ForceExpr.constant(1.0), parse("t^99999999999999999999 + sin(t)")):
            with pytest.raises(ValueError, match="entries exceed 65536"):
                ShiftBasis([force])


class TestDerivative:
    def test_first_derivative_of_t_exp(self):
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

    def test_self_sum_doubles_every_term(self):
        e = parse("t + sin(t)")
        assert e + e == 2.0 * e
        assert str(e + e) == "2.0*sin(t) + 2.0*t"

    def test_unmerged_terms_are_kept_as_they_are(self):
        e = parse("t + sin(t)")
        total = e + parse("cos(t)")
        assert str(total) == "sin(t) + cos(t) + t"
        assert total.terms[0] is e.terms[0] and total.terms[2] is e.terms[1]

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
    @settings(max_examples=200, deadline=None)
    @given(expr=shared_factor_exprs(), scale=st.floats(-10, 10))
    def test_derived_term_key_is_that_of_a_fresh_term(self, expr, scale):
        derived = [child for term in expr.terms for child in term.derivative_terms()]
        derived += [*expr.derivative(2).terms, *(scale * expr).terms, *(expr + expr).terms]
        for term in derived:
            fresh = ForceTerm(term.coeff, term.poly_power, term.exp_rate, term.trig,
                              term.trig_freq, term.trig_phase)
            assert term._key == fresh._key

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

    def test_exponent_beyond_int_digit_limit_rejected(self):
        with pytest.raises(ParseError, match="too many digits") as err:
            parse("3*t^" + "9" * 5000)
        assert err.value.position == 4

    def test_like_terms_cancelling_from_float_max(self):
        assert parse("1e308*t - 1e308*t").is_zero

    def test_two_trig_factors_rejected(self):
        with pytest.raises(ParseError, match="more than one"):
            parse("sin(t)*cos(t)")

    @pytest.mark.parametrize("text,message,position", [
        ("t $ 1", "unexpected character '$'", 2),
        ("t^x", "expected integer exponent after '^'", 2),
        ("t^2.5", "expected integer exponent after '^'", 2),
        ("3*t^" + "9" * 5000, "exponent has too many digits", 4),
        ("sin(t)*cos(t)", "more than one sin/cos factor in a term", 7),
        ("tan(t)", "unknown function 'tan'", 0),
        ("t^2 + * sin(t)", "expected a factor, got '*'", 6),
        ("t +", "expected a factor, got ''", 3),
        ("t t", "expected '+', '-' or end of input, got 't'", 2),
        ("t)", "expected '+', '-' or end of input, got ')'", 1),
        ("sin t", "expected '('", 4),
        ("sin(t", "expected ')'", 5),
        ("sin(2t)", "expected '*'", 5),
        ("exp(x)", "expected 't' in exp() argument", 4),
        ("sin(-2*)", "expected 't' in sin() argument", 7),
        ("exp(t + 1)", "exp() argument cannot carry a phase offset", 6),
        ("cos(-t - )", "expected number after phase sign", 9),
        ("t + 1e400*t", "term is out of float range", 4),
        ("1e308*t + 1e308*t", "sum of like terms is out of float range", 10),
        ("\u0663*t", "unexpected character '\u0663'", 0),       # Arabic-Indic digit three
        ("t^\uff11\uff12", "unexpected character '\uff11'", 2),   # fullwidth digits one, two
    ])
    def test_every_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} at position {position}"
        assert err.value.position == position

    @settings(max_examples=500, deadline=None)
    @given(text=st.text() | st.text(alphabet=" t^*+-()0123456789.eEsincoxpa", max_size=30))
    def test_any_text_parses_or_raises_parse_error_within_it(self, text):
        try:
            expr = parse(text)
        except ParseError as err:
            assert 0 <= err.position <= len(text)
        else:
            assert isinstance(expr, ForceExpr)

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
