import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heptaspline.spline_params import (
    INTERIOR_Y_WEIGHTS,
    SplineParams,
    TruncationCoeffs,
    _THETA_MIN,
    _theta_weights,
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


#: Eulerian numbers A(8, k), k = 0..3, over 8!/120: the interior weights of the
#: polynomial stencil, which the theta family must approach as theta -> 0.
EULERIAN_WEIGHTS = tuple(F(a, 336) for a in (1, 247, 4293, 15619))


def interior_row_residual(weights, omega, y, y7, center):
    """Interior row over knots 0..7 at h = 1 on y(t - center), given y^(7)."""
    stencil = tuple(weights) + tuple(weights)[::-1]
    return (sum(w * y7(omega, j - center) for j, w in enumerate(stencil))
            - sum(q * y(omega * (j - center)) for j, q in enumerate(INTERIOR_Y_WEIGHTS)))


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

    @pytest.mark.parametrize("params,name", [
        (optimal_family(F("1e400")), "alpha"),
        (optimal_family(F("1.7e308")), "gamma"),        # 1001/10 - 9*delta/5
        (SplineParams(10**400, -10**400, 30, 30), "alpha"),     # sums to 60 exactly
    ])
    def test_weight_beyond_float_range_rejected(self, params, name):
        with pytest.raises(ValueError, match=f"^{name} is beyond float range$"):
            validate(params)
        with pytest.raises(ValueError, match=f"^{name} is beyond float range$"):
            params.as_floats()

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
    @pytest.mark.parametrize("theta", ["1e-4", "1e-3"])
    def test_tends_to_eulerian_weights(self, theta):
        # At 60 digits the closed forms keep ~35 digits past their 1/theta^6
        # cancellation even at theta = 1e-4; the limit is approached as theta^2.
        with mp.workdps(60):
            th = mp.mpf(theta)
            weights = _theta_weights(th, mp.sin, mp.cos)
            for got, want in zip(weights, EULERIAN_WEIGHTS):
                assert abs(got - mp.mpf(want.numerator) / want.denominator) <= 4 * th**2
            assert abs(sum(weights) - 60 - 5 * th**2) <= th**4

    @pytest.mark.parametrize("theta", ["0.3", "0.7", "1.3", "2.5"])
    @pytest.mark.parametrize("center", ["0", "3", "3.5", "1.3"])
    def test_interior_row_exact_on_sin_and_cos(self, theta, center):
        # sin^(7) = -cos and cos^(7) = sin, times omega^7 with omega = theta/h.
        with mp.workdps(60):
            omega, c = mp.mpf(theta), mp.mpf(center)
            weights = _theta_weights(omega, mp.sin, mp.cos)
            for y, y7 in ((mp.sin, lambda w, s: -w**7 * mp.cos(w * s)),
                          (mp.cos, lambda w, s: w**7 * mp.sin(w * s))):
                assert abs(interior_row_residual(weights, omega, y, y7, c)) <= mp.mpf("1e-50")

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 2.0])
    def test_float_evaluation_within_its_cancellation(self, theta):
        # The closed forms cancel ~1/theta^6 (theta = 0.25: pieces of size ~1e6
        # summing to O(10)), so double evaluation is abs-1e-8 accurate there.
        with mp.workdps(60):
            want = [float(w) for w in _theta_weights(mp.mpf(theta), mp.sin, mp.cos)]
        for got, ref in zip(from_theta(theta).as_floats(), want):
            assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)

    @pytest.mark.parametrize("theta", [math.pi, 0.0, 1e-13, 2 * math.pi])
    def test_singular_theta_rejected(self, theta):
        with pytest.raises(ValueError):
            from_theta(theta)

    @pytest.mark.parametrize("theta", [0.01, 0.1, -0.15, math.nextafter(_THETA_MIN, 0.0)])
    def test_small_theta_rejected_for_its_cancellation(self, theta):
        with pytest.raises(ValueError, match=r"below 0\.2: the closed forms cancel terms"):
            from_theta(theta)

    def test_float_weights_within_1e_6_from_the_cut(self):
        # The cut is where the float weights start to keep 1e-6 relative
        # accuracy against 60 digits; just below it they no longer do.
        def worst(theta):
            floats = _theta_weights(theta, math.sin, math.cos)
            with mp.workdps(60):
                exact = _theta_weights(mp.mpf(theta), mp.sin, mp.cos)
                return max(float(abs((mp.mpf(x) - w) / w)) for x, w in zip(floats, exact))

        assert _THETA_MIN == 0.2
        for k in range(101):
            theta = _THETA_MIN + k * 1e-3
            assert from_theta(theta).as_floats() == from_theta(-theta).as_floats()
            assert worst(theta) <= 1e-6
        assert worst(0.1967) > 1e-6

    def test_sum_exceeds_sixty_by_order_theta_squared(self):
        # The weights sum to 60 + ~5 theta^2, so validate rejects them.
        recorded = {0.25: 0.31446556, 0.5: 1.2820611, 1.0: 5.5562988, 2.0: 33.444463}
        for theta, excess in recorded.items():
            with mp.workdps(60):
                measured = float(sum(_theta_weights(mp.mpf(theta), mp.sin, mp.cos)) - 60)
            assert measured == pytest.approx(excess, rel=1e-7)
            p = from_theta(theta)
            assert p.total - 60 == pytest.approx(excess, rel=1e-6)
            with pytest.raises(ValueError):
                validate(p)
