import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heptaspline.spline_params import (
    SplineParams,
    TruncationCoeffs,
    from_theta,
    optimal_family,
    truncation_coeffs,
    validate,
)


def reference_truncation_coeffs(params: SplineParams) -> TruncationCoeffs:
    """c7..c12 as the paper's six linear forms in the weights, transcribed."""
    al, be, ga, de = params.alpha, params.beta, params.gamma, params.delta
    s = al + be + ga + de
    return TruncationCoeffs(
        c7=2 * (-60 + s),
        c8=(-60 + s),
        c9=F(1, 2) * (-100 + 25 * al + 13 * be + 5 * ga + de),
        c10=F(1, 6) * (-120 + 37 * al + 19 * be + 7 * ga + de),
        c11=F(1, 24) * (-228 + 337 * al + 97 * be + 17 * ga + de),
        c12=F(1, 120) * (-380 + 781 * al + 211 * be + 31 * ga + de),
    )


#: Exact rational weights, and rational optimal-family parameters.
rationals = st.one_of(st.integers(-10**6, 10**6), st.fractions(-10**4, 10**4, max_denominator=10**4))


def mp_params_from_theta(theta):
    """Independent 50-digit evaluation of the four trigonometric closed forms."""
    with mp.workdps(50):
        th = mp.mpf(theta)
        s, c = mp.sin(th), mp.cos(th)
        alpha = 120 * (c - 1) / (th**7 * s) + 60 / (th**5 * s) - 5 / (th**3 * s) + 1 / (6 * th * s)
        beta = (600 * (1 - c) / (th**7 * s) - 60 * (2 * c - 3) / (th**5 * s)
                + 5 * (2 * c - 9) / (th**3 * s) - (2 * c - 57) / (6 * th * s))
        gamma = (1080 * (c - 1) / (th**7 * s) + 180 * (2 * c + 1) / (th**5 * s)
                 + 45 * (2 * c + 1) / (th**3 * s) - (38 * c - 101) / (2 * th * s))
        delta = (600 * (1 - c) / (th**7 * s) - 60 * (4 * c + 1) / (th**5 * s)
                 - 5 * (20 * c - 1) / (th**3 * s) - (604 * c - 359) / (6 * th * s))
        return tuple(float(x) for x in (alpha, beta, gamma, delta))


class TestValidate:
    @pytest.mark.parametrize("quad", [(0, 0, 0, 60), (10, 10, 10, 30),
                                      (F(1, 2), F(19, 2), F(49, 2), F(51, 2))])
    def test_sum_sixty_accepted(self, quad):
        p = SplineParams(*quad)
        assert validate(p) is p

    def test_constraint_violation_reports_sum(self):
        with pytest.raises(ValueError, match="sum=4"):
            validate(SplineParams(1, 1, 1, 1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            validate(SplineParams(math.nan, 0, 0, 60))

    def test_invalid_instance_raises_on_every_call(self):
        p = SplineParams(1, 1, 1, 1)
        for _ in range(3):
            with pytest.raises(ValueError, match="sum=4"):
                validate(p)

    def test_validated_instance_is_not_checked_again(self, monkeypatch):
        p = optimal_family(30)
        assert validate(p) is p

        def recheck(self):
            raise AssertionError("sum-60 check ran again")

        monkeypatch.setattr(SplineParams, "total", property(recheck))
        assert validate(p) is p
        with pytest.raises(AssertionError, match="ran again"):
            validate(optimal_family(30))       # a fresh instance is checked


class TestOptimalFamily:
    def test_delta_30(self):
        p = optimal_family(30)
        assert (p.alpha, p.beta, p.gamma, p.delta) == (F(61, 15), F(-121, 6), F(461, 10), 30)

    def test_delta_rational(self):
        p = optimal_family(F(51, 2))
        assert (p.alpha, p.beta, p.gamma) == (F(149, 30), F(-74, 3), F(271, 5))
        assert p.total == 60

    @pytest.mark.parametrize("delta", [0, 30, F(51, 2), -7, F(-3, 7), 12.25])
    def test_sum_exactly_sixty_and_validates(self, delta):
        p = optimal_family(delta)
        assert p.total == 60
        validate(p)

    @given(delta=rationals)
    @example(delta=0)
    @example(delta=30)
    @example(delta=F(51, 2))
    @example(delta=-7)
    def test_high_order_truncation_coefficients_vanish_identically(self, delta):
        c = truncation_coeffs(optimal_family(delta))
        assert (c.c9, c.c10, c.c11, c.c12) == (0, 0, 0, 0)
        assert isinstance(c.c9, F)   # exact rational arithmetic, not approximate


class TestTruncationCoeffs:
    @given(weights=st.tuples(rationals, rationals, rationals, rationals))
    @example(weights=(F(1, 2), F(19, 2), F(49, 2), F(51, 2)))
    def test_derived_equals_transcribed_forms_exactly(self, weights):
        params = SplineParams(*weights)
        c = truncation_coeffs(params)
        assert c == reference_truncation_coeffs(params)
        assert all(isinstance(v, F) for v in vars(c).values())

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
    def test_float_weights_within_rounding_of_transcribed_forms(self, theta):
        params = from_theta(theta)
        got, want = vars(truncation_coeffs(params)), vars(reference_truncation_coeffs(params))
        for name in got:
            assert isinstance(got[name], float)
            assert got[name] == pytest.approx(want[name], rel=1e-15)

    def test_anchor_delta_sixty(self):
        c = truncation_coeffs(SplineParams(0, 0, 0, 60))
        assert c.c7 == 0 and c.c8 == 0
        assert c.c9 == -20

    def test_anchor_tabulated_half_integers(self):
        c = truncation_coeffs(SplineParams(F(1, 2), F(19, 2), F(49, 2), F(51, 2)))
        assert c.c9 == 92

    def test_c7_c8_vanish_for_any_sum_sixty_set(self):
        rng = random.Random(5)
        for _ in range(20):
            parts = [F(rng.randint(-300, 300), rng.randint(1, 20)) for _ in range(3)]
            p = SplineParams(*parts, 60 - sum(parts))
            c = truncation_coeffs(validate(p))
            assert c.c7 == 0 and c.c8 == 0


class TestFromTheta:
    # Frozen from the 50-digit evaluation of the closed forms at theta = 0.5.
    FROZEN_HALF = (0.003095307485231805,
                   24029.516226045530,
                   13.090199428514841,
                   47.430026905302303)

    def test_matches_high_precision_oracle_at_half(self):
        p = from_theta(0.5)
        oracle = mp_params_from_theta("0.5")
        assert oracle == pytest.approx(self.FROZEN_HALF, rel=1e-15)
        # The closed forms cancel ~7 digits at this theta (pieces of size
        # ~1e4 summing to 3e-3), so double evaluation is abs-1e-12 accurate,
        # not rel-1e-12.
        for got, want in zip(p.as_floats(), oracle):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("theta", [math.pi, 0.0, 1e-13, 2 * math.pi])
    def test_singular_theta_rejected(self, theta):
        with pytest.raises(ValueError):
            from_theta(theta)

    def test_closed_forms_do_not_satisfy_sum_constraint(self):
        # Documented finding: the four closed forms do NOT sum to 60; the
        # deviation is structural (beta grows like 360/theta^6 near 0).
        recorded = {0.25: 1490033.06, 0.5: 24030.04, 1.0: 433.38, 2.0: 45.8167}
        for theta, deviation in recorded.items():
            p = from_theta(theta)
            measured = sum(mp_params_from_theta(theta)) - 60
            assert measured == pytest.approx(deviation, rel=1e-4)
            assert abs(p.total - 60) > 10
            with pytest.raises(ValueError):
                validate(p)
