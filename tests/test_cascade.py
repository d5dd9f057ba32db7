import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptaspline.cascade import CascadeModel, IvpProblem, reduce, simulate_direct
from heptaspline.forces import ForceExpr, ForceTerm, parse
from heptaspline.oracle import rk_solve

ZERO7 = tuple(ForceExpr.zero() for _ in range(7))


def random_force(rng: random.Random) -> ForceExpr:
    terms = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["poly", "sin", "cos"])
        coeff = rng.uniform(-1, 1)
        power = rng.randint(0, 2)
        if kind == "poly":
            terms.append(ForceTerm(coeff, power))
        else:
            terms.append(ForceTerm(coeff, power, 0.0, kind, rng.uniform(-2, 2), rng.uniform(-1, 1)))
    return ForceExpr(tuple(terms))


def random_model(rng: random.Random) -> CascadeModel:
    return CascadeModel(
        n_scales=7,
        gamma=rng.choice([0.5, 1.0, 2.0]),
        forces=tuple(random_force(rng) for _ in range(7)),
        init_velocities=tuple(rng.uniform(-1, 1) for _ in range(7)),
        interval=(0.0, 1.0),
    )


def reference_reduce(model: CascadeModel):
    """g, u and the summands' size from the closed-form double sums.

    With cyclic scale indices, the N-fold differentiation of the coupling gives

        g   = sum_{j<N} (-Gamma)^(N-1-j) d^j L^(N-j)/dt^j,
        u_m = (-Gamma)^m v_(1+m) + sum_{j<m} (-Gamma)^(m-1-j) d^j L^(m-j)/dt^j (a),

    each derivative built from scratch; ``reduce`` gets both from one
    recurrence instead.  ``size[m]`` is the sum of the magnitudes of u_m's
    terms, the scale its rounding error is measured against.
    """
    n, gamma, a = model.n_scales, model.gamma, model.interval[0]
    g = ForceExpr.zero()
    for j in range(n):
        g = g + (-gamma) ** (n - 1 - j) * model.forces[(n - 1 - j) % n].derivative(j)
    u, size = [], []
    for m in range(n):
        terms = [(-gamma) ** m * model.init_velocities[m % n]]
        for j in range(m):
            terms.append((-gamma) ** (m - 1 - j) * model.forces[(m - 1 - j) % n].derivative(j)(a))
        u.append(sum(terms))
        size.append(sum(abs(term) for term in terms))
    return g, u, size


class TestModelInvariants:
    def test_force_count_must_match(self):
        with pytest.raises(ValueError, match="7 forces"):
            CascadeModel(7, 1.0, ZERO7[:6], (0.0,) * 7, (0.0, 1.0))

    def test_velocity_count_must_match(self):
        with pytest.raises(ValueError, match="initial velocities"):
            CascadeModel(7, 1.0, ZERO7, (0.0,) * 6, (0.0, 1.0))

    def test_gamma_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            CascadeModel(7, 0.0, ZERO7, (0.0,) * 7, (0.0, 1.0))

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_gamma_finite(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite"):
            CascadeModel(7, gamma, ZERO7, (0.0,) * 7, (0.0, 1.0))

    def test_interval_ordered(self):
        with pytest.raises(ValueError, match="a < b"):
            CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, (1.0, 0.0))

    @pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_interval_endpoints_finite(self, interval):
        with pytest.raises(ValueError, match="interval endpoints must be finite"):
            CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, interval)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_initial_velocities_finite(self, bad):
        with pytest.raises(ValueError, match="initial velocities must be finite"):
            CascadeModel(7, 1.0, ZERO7, (0.0,) * 3 + (bad,) + (0.0,) * 3, (0.0, 1.0))

    def test_ivp_problem_rejects_non_finite_data(self):
        with pytest.raises(ValueError, match="finite"):
            IvpProblem(0.0, 1.0, ForceExpr.zero(), ForceExpr.zero(), (math.inf,) * 7)

    @pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
    def test_ivp_problem_rejects_non_finite_endpoints(self, a, b):
        with pytest.raises(ValueError, match="endpoints must be finite"):
            IvpProblem(a, b, ForceExpr.zero(), ForceExpr.zero(), (0.0,) * 7)


class TestReducedForce:
    def test_all_zero_forces(self):
        model = CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, (0.0, 1.0))
        assert reduce(model).g.is_zero

    def test_constant_force_at_bottom_scale_passes_through(self):
        # only the underived bottom-scale term survives, with weight (-G)^6
        forces = ZERO7[:6] + (ForceExpr.constant(3.25),)
        model = CascadeModel(7, 1.0, forces, (0.0,) * 7, (0.0, 1.0))
        assert reduce(model).g == ForceExpr.constant(3.25)

    def test_t6_force_at_top_scale_contributes_its_sixth_derivative(self):
        forces = (parse("t^6"),) + ZERO7[1:]
        model = CascadeModel(7, 1.0, forces, (0.0,) * 7, (0.0, 1.0))
        assert reduce(model).g == ForceExpr.constant(720.0)

    def test_gamma_weighting_of_bottom_scale(self):
        forces = ZERO7[:6] + (ForceExpr.constant(1.0),)
        model = CascadeModel(7, 2.0, forces, (0.0,) * 7, (0.0, 1.0))
        assert reduce(model).g.evaluate(0.1) == pytest.approx((-2.0) ** 6)


class TestReducedInitialData:
    def test_unit_velocities_alternate(self):
        model = CascadeModel(7, 1.0, ZERO7, (1.0,) * 7, (0.0, 1.0))
        assert reduce(model).u == (1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0)

    def test_first_derivative_is_minus_gamma_times_second_scale(self):
        rng = random.Random(2)
        for _ in range(5):
            v = tuple(rng.uniform(-2, 2) for _ in range(7))
            gamma = rng.uniform(0.2, 3.0)
            model = CascadeModel(7, gamma, ZERO7, v, (0.0, 1.0))
            u = reduce(model).u
            assert u[0] == pytest.approx(v[0])
            assert u[1] == pytest.approx(-gamma * v[1])

    def test_second_derivative_assembles_forces_and_velocity(self):
        rng = random.Random(9)
        for _ in range(5):
            forces = tuple(random_force(rng) for _ in range(7))
            v = tuple(rng.uniform(-1, 1) for _ in range(7))
            model = CascadeModel(7, 1.0, forces, v, (0.0, 1.0))
            u = reduce(model).u
            a = 0.0
            expected = v[2] - forces[1].evaluate(a) + forces[0].derivative().evaluate(a)
            assert u[2] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@st.composite
def force_terms(draw):
    rate = draw(st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0))
    trig = draw(st.sampled_from(["none", "sin", "cos"]))
    wave = (0.0, 0.0)
    if trig != "none":
        wave = (draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0)))
    return ForceTerm(draw(st.floats(-5.0, 5.0)), draw(st.integers(0, 3)), rate, trig, *wave)


@st.composite
def cascade_models(draw):
    n = draw(st.sampled_from([1, 3, 5, 7]))
    a = draw(st.floats(0.01, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return CascadeModel(
        n_scales=n,
        gamma=draw(st.floats(0.2, 3.0)),
        forces=tuple(ForceExpr(tuple(draw(st.lists(force_terms(), max_size=3))))
                     for _ in range(n)),
        init_velocities=tuple(draw(st.floats(-1.0, 1.0)) for _ in range(n)),
        interval=(a, a + 1.0))


class TestOnePassStartValues:
    @settings(max_examples=200, deadline=None)
    @given(model=cascade_models())
    def test_bit_identical_to_per_force_evaluation(self, model):
        # u_m as each F_m's own ForceExpr.evaluate gives it, with F_m folded here
        f, u = ForceExpr.zero(), []
        for m in range(model.n_scales):
            weight = (-model.gamma) ** m
            u.append(weight * model.init_velocities[m] + f.evaluate(model.interval[0]))
            f = f.derivative() + weight * model.forces[m]
        problem = reduce(model)
        assert problem.u == tuple(u)
        assert problem.g == f


class TestRecurrenceMatchesClosedForm:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_random_models(self, n):
        # Non-dyadic Gamma: powers of two would multiply exactly and hide
        # any difference in rounding between the two orders of evaluation.
        rng = random.Random(100 + n)
        for _ in range(20):
            model = CascadeModel(
                n_scales=n,
                gamma=rng.uniform(0.2, 3.0),
                forces=tuple(random_force(rng) for _ in range(n)),
                init_velocities=tuple(rng.uniform(-1, 1) for _ in range(n)),
                interval=(rng.uniform(-1, 1), 2.0),
            )
            problem = reduce(model)
            g, u, size = reference_reduce(model)
            assert [t._key for t in problem.g.terms] == [t._key for t in g.terms]
            for got, want in zip(problem.g.terms, g.terms):
                assert got.coeff == pytest.approx(want.coeff, rel=1e-14, abs=0)
            # u_m sums terms of both signs, so it is held to 1e-14 of their size
            for got, want, scale in zip(problem.u, u, size):
                assert abs(got - want) <= 1e-14 * scale


class TestReduce:
    @pytest.mark.parametrize("start,message", [
        (100.0, r"^force F_1\(t\) = inf at t = 100\.0 "),       # F_1(a) comes first
        (0.0, r"^composed force g\(t\) = .* has a coefficient beyond float range"),
    ])
    def test_first_error_in_loop_order(self, start, message):
        # F_1 = L1 = 1e300 exp(t) overflows at a = 100; g = F_7 carries
        # Gamma^6 * 1e60 = 1e318.
        forces = (parse("1e300*exp(t)"),) + ZERO7[1:6] + (parse("1e60*t"),)
        model = CascadeModel(7, 1e43, forces, (0.0,) * 7, (start, start + 1.0))
        with pytest.raises(ValueError, match=message):
            reduce(model)

    def test_trivial_model_reduces_to_zero_solution(self):
        model = CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, (0.0, 1.0))
        problem = reduce(model)
        assert problem.f == ForceExpr.constant(1.0)
        assert problem.g.is_zero
        assert problem.u == (0.0,) * 7
        trajectory = rk_solve(problem, 200)
        assert np.max(np.abs(trajectory.y)) == 0.0

    def test_feedback_constant_is_gamma_to_the_seventh(self):
        model = CascadeModel(7, 2.0, ZERO7, (0.0,) * 7, (0.0, 1.0))
        assert reduce(model).f == ForceExpr.constant(128.0)

    def test_feedback_beyond_float_range_rejected(self):
        model = CascadeModel(7, 1e50, ZERO7, (0.0,) * 7, (0.0, 1.0))
        with pytest.raises(ValueError, match="beyond float range"):
            reduce(model)

    def test_overflowing_intermediate_force_rejected_before_evaluation(self):
        # F_2 = -Gamma * L2 = -inf*t vanishes from g after two derivatives;
        # evaluating it at a = 0 would compute inf * 0.
        forces = (ForceExpr.zero(), parse("1e300*t")) + ZERO7[2:]
        model = CascadeModel(7, 1e40, forces, (0.0,) * 7, (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"F_2\(t\) = -inf\*t has a coefficient beyond"):
                reduce(model)

    def test_force_beyond_float_range_at_start_rejected(self):
        # F_1 = L1 = exp(800 t) is finite as an expression but not at a = 1.
        forces = (parse("exp(800*t)"),) + ZERO7[1:]
        model = CascadeModel(7, 1.0, forces, (0.0,) * 7, (1.0, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"force F_1\(t\) = inf at t = 1\.0 "):
                reduce(model)

    def test_even_scale_count_rejected(self):
        model = CascadeModel(6, 1.0, ZERO7[:6], (0.0,) * 6, (0.0, 1.0))
        with pytest.raises(ValueError, match="odd"):
            reduce(model)

    def test_other_odd_orders_are_oracle_only(self):
        from heptaspline.assembly import EndConditionMode, build
        from heptaspline.spline_params import SplineParams
        model = CascadeModel(5, 1.0, ZERO7[:5], (1.0,) * 5, (0.0, 1.0))
        problem = reduce(model)
        assert problem.order == 5
        rk_solve(problem, 100)   # oracle accepts it
        with pytest.raises(ValueError, match="7th order"):
            build(problem, SplineParams(0, 0, 0, 60), EndConditionMode.STANDARD, 12)


class TestSimulateDirect:
    def test_zero_model_stays_at_rest(self):
        model = CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, (0.0, 1.0))
        _, traj = simulate_direct(model, 50)
        assert np.all(traj == 0.0)

    def test_symmetric_state_decays_exponentially(self):
        # equal velocities and no forcing collapse every scale to y' = -y
        model = CascadeModel(7, 1.0, ZERO7, (1.0,) * 7, (0.0, 1.0))
        t, traj = simulate_direct(model, 10_000)
        expected = np.exp(-(t - 0.0))
        assert np.max(np.abs(traj - expected[:, None])) <= 1e-8

    def test_step_count_validated(self):
        model = CascadeModel(7, 1.0, ZERO7, (0.0,) * 7, (0.0, 1.0))
        with pytest.raises(ValueError):
            simulate_direct(model, 0)

    def test_force_beyond_float_range_on_half_steps_rejected(self):
        forces = ZERO7[:3] + (parse("exp(800*t)"),) + ZERO7[4:]
        model = CascadeModel(7, 1.0, forces, (0.0,) * 7, (0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"force L4\(t\) = inf at t = 0\.8875"):
                simulate_direct(model, 40)

    def test_cyclic_relabeling_permutes_trajectories(self):
        rng = random.Random(17)
        model = random_model(rng)
        shift = 3
        shifted = CascadeModel(
            7, model.gamma,
            model.forces[shift:] + model.forces[:shift],
            model.init_velocities[shift:] + model.init_velocities[:shift],
            model.interval)
        _, traj = simulate_direct(model, 400)
        _, traj_shifted = simulate_direct(shifted, 400)
        assert np.allclose(traj_shifted, np.roll(traj, -shift, axis=1), atol=1e-12)

    def test_reduction_equivalence_on_random_models(self):
        rng = random.Random(23)
        for _ in range(4):
            model = random_model(rng)
            _, traj = simulate_direct(model, 10_000)
            trajectory = rk_solve(reduce(model), 10_000)
            assert np.max(np.abs(traj[:, 0] - trajectory.y)) <= 1e-6

    def test_seventh_difference_tracks_reduced_equation(self):
        # Interior 7th differences of the top scale approximate g - Gamma^7 y.
        # Steps stay coarse on purpose: the h^-7 amplification of roundoff
        # would swamp the quotient below h ~ 1/30.
        rng = random.Random(31)
        model = random_model(rng)
        g = reduce(model).g
        gamma7 = model.gamma ** 7
        stencil = np.array([-1, 7, -21, 35, -35, 21, -7, 1], dtype=float)
        errors = []
        for steps in (10, 20):
            t, traj = simulate_direct(model, steps)
            h = t[1] - t[0]
            y = traj[:, 0]
            worst = 0.0
            for i in range(steps - 7):
                d7 = np.dot(stencil, y[i:i + 8]) / h**7
                mid = t[i] + 3.5 * h
                y_mid = 0.5 * (y[i + 3] + y[i + 4])
                worst = max(worst, abs(d7 - (g.evaluate(mid) - gamma7 * y_mid)))
            errors.append(worst)
        assert errors[1] < errors[0]
