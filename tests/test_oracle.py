import math
import random
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heptaspline import oracle
from heptaspline.assembly import EndConditionMode, build, min_knots
from heptaspline.cascade import _BLOCK, CascadeModel, IvpProblem, _knot_grid, simulate_direct
from heptaspline.forces import ForceExpr, ForceTerm, parse
from heptaspline.linsolve import SolutionGrid, lu_solve
from heptaspline.oracle import (
    BENCHMARKS,
    convergence_study,
    max_abs_error,
    rk_solve,
)
from heptaspline.spline_params import SplineParams, optimal_family

OSCILLATING, EXPONENTIAL, PURE_FORCING = BENCHMARKS
#: y = exp(t) solves y^(7) + t*y = exp(t) + t*exp(t); the only non-constant f here.
TIME_VARYING = IvpProblem(0.0, 1.0, parse("t"), parse("exp(t) + t*exp(t)"), (1.0,) * 7)


class TestBenchmarkFixtures:
    """The bundled problems must actually satisfy their stated solutions."""

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_exact_solution_satisfies_the_equation(self, bench):
        # every bundled f is constant, so f*y stays inside the term grammar
        f_value = bench.problem.f.evaluate(0.0)
        residual = bench.exact.derivative(7) + f_value * bench.exact - bench.problem.g
        ts = np.linspace(bench.problem.a, bench.problem.b, 13)
        g_scale = np.max(np.abs(bench.problem.g.evaluate(ts)))
        assert np.max(np.abs(residual.evaluate(ts))) <= 1e-12 * g_scale

    @pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
    def test_initial_data_matches_exact_solution(self, bench):
        for m, u in enumerate(bench.problem.u):
            value = bench.exact.derivative(m).evaluate(bench.problem.a)
            assert u == pytest.approx(value, rel=1e-13, abs=1e-13)


class TestRkSolve:
    def test_zero_problem_stays_zero(self):
        problem = IvpProblem(0.0, 1.0, ForceExpr.constant(1.0), ForceExpr.zero(), (0.0,) * 7)
        trajectory = rk_solve(problem, 100)
        assert np.all(trajectory.states == 0.0)

    def test_matches_oscillating_solution(self):
        trajectory = rk_solve(OSCILLATING.problem, 100_000)
        exact = OSCILLATING.exact.evaluate(trajectory.t)
        assert np.max(np.abs(trajectory.y - exact)) <= 1e-9

    def test_exponential_solution_vanishes_at_right_endpoint(self):
        trajectory = rk_solve(EXPONENTIAL.problem, 100_000)
        assert abs(trajectory.y[-1]) <= 1e-9

    def test_fourth_order_self_convergence(self):
        errors = []
        for steps in (250, 500, 1000):
            trajectory = rk_solve(OSCILLATING.problem, steps)
            exact = OSCILLATING.exact.evaluate(trajectory.t)
            errors.append(np.max(np.abs(trajectory.y - exact)))
        for e1, e2 in zip(errors, errors[1:]):
            order = math.log2(e1 / e2)
            assert order == pytest.approx(4.0, abs=0.4)

    def test_time_varying_f_fourth_order(self):
        errors = []
        for steps in (250, 500, 1000):
            trajectory = rk_solve(TIME_VARYING, steps)
            errors.append(np.max(np.abs(trajectory.y - np.exp(trajectory.t))))
        for e1, e2 in zip(errors, errors[1:]):
            assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.4)

    def test_trajectory_keeps_its_interval(self):
        trajectory = rk_solve(EXPONENTIAL.problem, 10)
        assert (trajectory.a, trajectory.b, trajectory.steps) == (0.0, 1.0, 10)
        assert trajectory.t.shape == (11,) and trajectory.t[0] == 0.0
        assert trajectory.t[5] == 0.5 and trajectory.t[-1] == 1.0

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            rk_solve(EXPONENTIAL.problem, 0)

    @pytest.mark.parametrize("f,g,message", [
        ("1", "exp(800*t)", r"force g\(t\) = inf at t = 0\.8875"),
        ("1 + exp(800*t)", "1", r"force f\(t\) = inf at t = 0\.8875"),
    ])
    def test_force_beyond_float_range_on_half_steps_rejected(self, f, g, message):
        problem = IvpProblem(0.0, 1.0, parse(f), parse(g), (0.0,) * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                rk_solve(problem, 40)

    @pytest.mark.parametrize("f", ["-1e30", "-1e30 - 1e30*t"], ids=["constant-f", "time-varying-f"])
    def test_states_beyond_float_range_rejected(self, f):
        # f and g are finite everywhere, but y grows like exp(1e30^(1/7) t).
        problem = IvpProblem(0.0, 1.0, parse(f), ForceExpr.constant(1.0), (0.0,) * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"RK4 state at step \d+ of 2400 is beyond float"):
                rk_solve(problem, 2400)

    def test_step_map_overflow_on_zero_solution_named(self):
        # Every exact RK state is 0; only the products of the step maps overflow.
        problem = IvpProblem(0.0, 1.0, parse("-1e30"), ForceExpr.zero(), (0.0,) * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"RK4 state at step \d+ of 2400 is beyond float "
                                                 r"range, or the products of the kernel's step "
                                                 r"maps left float range .*\|f\|\*h\^7"):
                rk_solve(problem, 2400)

    def test_time_varying_f_on_zero_solution_gives_zeros(self):
        # The rates are those of the overflow tests above, but a time-varying f
        # is stepped one map at a time, so a zero solution stays exactly zero.
        problem = IvpProblem(0.0, 1.0, parse("-1e30 - 1e30*t"), ForceExpr.zero(), (0.0,) * 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = rk_solve(problem, 2400).states
        assert states.shape == (2401, 7) and not states.any()

    def test_time_varying_f_keeps_no_companion_stack(self):
        # A (2*steps + 1, 7, 7) stack of companion matrices would alone take 7.8 MB.
        steps = 10_000
        problem = IvpProblem(0.0, 1.0, parse("1 + t"), parse("exp(t) + t*exp(t)"), (1.0,) * 7)
        tracemalloc.start()
        try:
            rk_solve(problem, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * steps + 1) * 7 * 7 * 8


def textbook_rk4(rate, z0, a, h, steps):
    """Classical RK4, one step at a time: the scheme the oracles must implement."""
    z = np.array(z0, dtype=float)
    states = [z]
    for i in range(steps):
        t = a + i * h
        k1 = rate(t, z)
        k2 = rate(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = rate(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = rate(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
    return np.array(states)


def on_half_steps(values, a, h):
    """A function of t that reads ``values`` tabulated at a, a + h/2, a + h, ...

    Tabulating the forces keeps the per-step loop fast; the lookup goes by t,
    so it does not share the kernel's indexing.
    """
    return lambda t: values[round((t - a) / (0.5 * h))]


def half_step_grid(a, h, steps):
    return a + 0.5 * h * np.arange(2 * steps + 1)


def companion_rate(problem, h, steps):
    grid = half_step_grid(problem.a, h, steps)
    f = on_half_steps(problem.f.evaluate(grid), problem.a, h)
    g = on_half_steps(problem.g.evaluate(grid), problem.a, h)

    def rate(t, z):
        return np.append(z[1:], g(t) - f(t) * z[0])
    return rate


#: Step counts on both sides of the scan's block boundaries at every level of
#: its recursion, counts whose block-carry recursion pads at two levels, a
#: prime, and the oracles' usual 10 000.
STEP_COUNTS = [1, 63, 64, 65, 130, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK**2, _BLOCK**2 + 1,
               _BLOCK**3 + 1, _BLOCK * (_BLOCK + 1), _BLOCK**2 * (_BLOCK + 1) + 1, 1009, 10_000]


class TestClassicalRk4:
    """Both oracles agree with per-step classical RK4, across block boundaries."""

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    @pytest.mark.parametrize("problem", [OSCILLATING.problem, TIME_VARYING],
                             ids=["constant-f", "time-varying-f"])
    def test_companion_system(self, problem, steps):
        h = (problem.b - problem.a) / steps
        expected = textbook_rk4(companion_rate(problem, h, steps), problem.u, problem.a, h, steps)
        assert np.max(np.abs(rk_solve(problem, steps).states - expected)) <= 1e-12

    @pytest.mark.parametrize("steps", STEP_COUNTS)
    def test_cascade_system(self, steps):
        rng = random.Random(7)
        model = CascadeModel(
            n_scales=7, gamma=2.0,
            forces=tuple(parse(f"{rng.uniform(-1, 1)}*sin({rng.uniform(-2, 2)}*t) + t^2")
                         for _ in range(7)),
            init_velocities=tuple(rng.uniform(-1, 1) for _ in range(7)),
            interval=(-0.5, 1.5))
        h = 2.0 / steps
        grid = half_step_grid(-0.5, h, steps)
        forcing = on_half_steps(np.stack([f.evaluate(grid) for f in model.forces], axis=1),
                                -0.5, h)

        def rate(t, y):
            return -model.gamma * np.roll(y, -1) + forcing(t)

        expected = textbook_rk4(rate, model.init_velocities, -0.5, h, steps)
        _, trajectories = simulate_direct(model, steps)
        assert np.max(np.abs(trajectories - expected)) <= 1e-12


class TestSimulateDirect:
    def test_states_beyond_float_range_rejected(self):
        # Gamma^7 = 1e35 is finite, but Gamma*h = 10 makes some modes grow
        # by hundreds per step.
        model = CascadeModel(n_scales=7, gamma=1e5, forces=(ForceExpr.constant(1.0),) * 7,
                             init_velocities=(0.0,) * 7, interval=(0.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"RK4 state at step \d+ of 10000 is beyond float"):
                simulate_direct(model, 10_000)


class TestMaxAbsError:
    def test_zero_when_grid_equals_reference(self):
        ts = np.linspace(0.0, 1.0, 11)
        exact = EXPONENTIAL.exact
        grid = SolutionGrid(t=ts, y=exact.evaluate(ts), residual_inf=0.0)
        assert max_abs_error(grid, exact) == 0.0

    def test_oscillating_standard_anchor(self):
        grid = lu_solve(build(OSCILLATING.problem, SplineParams(0, 0, 0, 60),
                              EndConditionMode.STANDARD, 24))
        err = max_abs_error(grid, OSCILLATING.exact)
        assert err == pytest.approx(3.56e-2, rel=0.05)

    def test_exponential_improved_anchor(self):
        grid = lu_solve(build(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, 12))
        err = max_abs_error(grid, EXPONENTIAL.exact)
        assert err <= 10 * 2.15e-8 and err >= 2.15e-8 / 10

    def test_rk_reference_must_contain_every_knot(self):
        grid = lu_solve(build(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, 10))
        with pytest.raises(ValueError, match="step point"):
            max_abs_error(grid, rk_solve(EXPONENTIAL.problem, 15))

    def test_rk_reference_on_another_interval_rejected(self):
        grid = lu_solve(build(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, 10))
        # Every knot is a step point of a 1000-step run on [0, 2], but a stride
        # of 100 steps would read that run at t = 0, 0.2, ..., 2.
        longer = IvpProblem(0.0, 2.0, EXPONENTIAL.problem.f, EXPONENTIAL.problem.g,
                            EXPONENTIAL.problem.u)
        with pytest.raises(ValueError, match=r"interval \[0\.0, 2\.0\]"):
            max_abs_error(grid, rk_solve(longer, 1000))

    def test_rk_trajectory_as_reference(self):
        # n = 17 at 1700 steps: the last knot is 1.0, the last step point 0.9999999999999999.
        for n, steps in [(10, 1000), (17, 1700)]:
            grid = lu_solve(build(EXPONENTIAL.problem, optimal_family(30),
                                  EndConditionMode.IMPROVED, n))
            reference = rk_solve(EXPONENTIAL.problem, steps)
            via_rk = max_abs_error(grid, reference)
            via_exact = max_abs_error(grid, EXPONENTIAL.exact)
            assert via_rk == pytest.approx(via_exact, rel=1e-3, abs=1e-12)

    @pytest.mark.parametrize("text", ["exp(800*t) - t*exp(800*t)", "exp(800*t)"])
    def test_closed_form_beyond_float_range_on_knots_rejected(self, text):
        grid = lu_solve(build(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^force exact\(t\) = "):
                max_abs_error(grid, parse(text))


class TestOneKnotGrid:
    """``build``, ``RkTrajectory`` and ``max_abs_error`` share ``_knot_grid``."""

    @settings(max_examples=40, deadline=None)
    @given(a=st.one_of(st.sampled_from([-1e6, 1e6]), st.floats(-1e6, 1e6)),
           width=st.floats(1e-3, 4.0), mode=st.sampled_from(EndConditionMode),
           k=st.sampled_from([1, 2, 3]), data=st.data())
    def test_build_grid_is_the_knot_grid_and_accepted_against_rk(self, a, width, mode, k, data):
        n = data.draw(st.integers(min_knots(mode), 40), label="n")
        problem = IvpProblem(a, a + width, ForceExpr.constant(1.0), ForceExpr.zero(),
                             (1.0,) + (0.0,) * 6)
        system = build(problem, optimal_family(30), mode, n)
        assert system.grid.tobytes() == _knot_grid(problem.a, problem.b, n).tobytes()
        err = max_abs_error(lu_solve(system), rk_solve(problem, k * n))
        assert math.isfinite(err)


class TestConvergenceStudy:
    def test_oscillating_standard_toward_published_errors(self):
        report = convergence_study(
            OSCILLATING.problem, SplineParams(F(1, 2), F(19, 2), F(49, 2), F(51, 2)),
            EndConditionMode.STANDARD, [12, 24, 48, 96], reference=OSCILLATING.exact)
        published = (2.88e-1, 3.09e-2, 2.5e-3, 1.70e-4)
        for (n, err), expect in zip(report.entries, published):
            assert expect / 10 <= err <= expect * 10
        assert all(o is not None for o in report.orders)

    def test_pure_forcing_standard_toward_published_errors(self):
        report = convergence_study(
            PURE_FORCING.problem, SplineParams(10, 10, 10, 30),
            EndConditionMode.STANDARD, [9, 18, 36], reference=PURE_FORCING.exact)
        published = (1.5e-3, 1.60e-4, 1.32e-5)
        for (n, err), expect in zip(report.entries, published):
            assert expect / 10 <= err <= expect * 10

    def test_degree_eight_polynomial_is_solved_to_roundoff(self):
        exact = ForceExpr((ForceTerm(1.0, 8), ForceTerm(-0.5, 2)))
        problem = IvpProblem(0.0, 1.0, ForceExpr.zero(), exact.derivative(7),
                             tuple(exact.derivative(m).evaluate(0.0) for m in range(7)))
        report = convergence_study(problem, SplineParams(0, 0, 0, 60),
                                   EndConditionMode.STANDARD, [12, 24, 48],
                                   reference=exact)
        for _, err in report.entries:
            assert err <= 1e-8

    def test_rk_fallback_reference(self):
        report = convergence_study(EXPONENTIAL.problem, optimal_family(30),
                                   EndConditionMode.IMPROVED, [10, 20])
        direct = convergence_study(EXPONENTIAL.problem, optimal_family(30),
                                   EndConditionMode.IMPROVED, [10, 20],
                                   reference=EXPONENTIAL.exact)
        for (n1, e1), (n2, e2) in zip(report.entries, direct.entries):
            assert e1 == pytest.approx(e2, rel=1e-2, abs=1e-12)

    def test_rk_fallback_reference_on_a_shifted_interval(self):
        # y^(7) + y = 0 is autonomous: moving [0, 1] to [1e6, 1e6 + 1] keeps every error.
        u = (1.0,) + (0.0,) * 6
        reports = [convergence_study(IvpProblem(a, a + 1, ForceExpr.constant(1.0),
                                                ForceExpr.zero(), u),
                                     optimal_family(30), EndConditionMode.STANDARD, [25, 50, 100])
                   for a in (0.0, 1e6)]
        for (n1, e1), (n2, e2) in zip(*(report.entries for report in reports)):
            assert n1 == n2 and e2 == pytest.approx(e1, rel=1e-6)

    def test_orders_only_for_exact_doublings(self):
        report = convergence_study(EXPONENTIAL.problem, optimal_family(30),
                                   EndConditionMode.IMPROVED, [10, 12, 24],
                                   reference=EXPONENTIAL.exact)
        assert report.orders[0] is None
        assert report.orders[1] is not None

    def test_rk_reference_step_count_checked_before_the_run(self, monkeypatch):
        monkeypatch.setattr(oracle, "rk_solve", lambda *args, **kw: pytest.fail("RK run started"))
        with pytest.raises(ValueError, match="n=12 does not divide the 5000 steps"):
            convergence_study(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, [12, 24, 50])

    def test_exact_reference_beyond_float_range_on_knots_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"force exact\(t\) = inf at t = 0\.9 "):
                convergence_study(EXPONENTIAL.problem, optimal_family(30),
                                  EndConditionMode.IMPROVED, [10, 20],
                                  reference=parse("exp(800*t)"))

    def test_closed_form_reference_evaluated_once_per_n(self, monkeypatch):
        exact = EXPONENTIAL.exact
        calls = []
        evaluate = ForceExpr.evaluate

        def counting(self, t):
            if self is exact:
                calls.append(np.size(t))
            return evaluate(self, t)

        monkeypatch.setattr(ForceExpr, "evaluate", counting)
        report = convergence_study(EXPONENTIAL.problem, optimal_family(30),
                                   EndConditionMode.IMPROVED, [10, 20, 40], reference=exact)
        assert calls == [11, 21, 41]
        assert [n for n, _ in report.entries] == [10, 20, 40]

    @pytest.mark.parametrize("reference", [None, EXPONENTIAL.exact])
    def test_empty_n_list_rejected_before_the_rk_run(self, monkeypatch, reference):
        monkeypatch.setattr(oracle, "rk_solve", lambda *args, **kw: pytest.fail("RK run started"))
        with pytest.raises(ValueError, match="^n_list is empty$"):
            convergence_study(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, [], reference=reference)

    def test_non_increasing_n_list_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_study(EXPONENTIAL.problem, optimal_family(30),
                              EndConditionMode.IMPROVED, [20, 10])
