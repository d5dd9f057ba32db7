"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Published error-table values are matched to within a factor of 10 (they are
reported to 2-3 significant digits and solver details differ); truncation
identities and polynomial exactness are checked in exact rational
arithmetic; oracle agreement and cascade equivalence use the stated
tolerances.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from heptaspline.assembly import EndConditionMode, build, row_residual
from heptaspline.cascade import CascadeModel, IvpProblem, reduce, simulate_direct
from heptaspline.forces import ForceExpr, ForceTerm
from heptaspline.linsolve import lu_solve
from heptaspline.oracle import BENCHMARKS, convergence_study, max_abs_error, rk_solve
from heptaspline.spline_params import SplineParams, optimal_family, truncation_coeffs

OSCILLATING, EXPONENTIAL, PURE_FORCING = BENCHMARKS

STANDARD = EndConditionMode.STANDARD
IMPROVED = EndConditionMode.IMPROVED

COL1 = SplineParams(F(1, 2), F(19, 2), F(49, 2), F(51, 2))
COL2 = SplineParams(0, 0, 0, 60)
COL3 = SplineParams(10, 10, 10, 30)
OPT30 = optimal_family(30)

#: (benchmark, mode, params, n) -> published max-abs error; improved-mode
#: n=10 rows are pre-asymptotic in print and excluded by the criterion.
PUBLISHED_CELLS = [
    # errors vs n for the oscillating problem, standard end conditions
    (OSCILLATING, STANDARD, COL1, 12, 2.88e-1),
    (OSCILLATING, STANDARD, COL1, 24, 3.09e-2),
    (OSCILLATING, STANDARD, COL1, 48, 2.5e-3),
    (OSCILLATING, STANDARD, COL1, 96, 1.70e-4),
    (OSCILLATING, STANDARD, COL2, 12, 3.04e-1),
    (OSCILLATING, STANDARD, COL2, 24, 3.56e-2),
    (OSCILLATING, STANDARD, COL2, 48, 3.9e-3),
    (OSCILLATING, STANDARD, COL2, 96, 7.37e-4),
    (OSCILLATING, STANDARD, COL3, 12, 2.76e-1),
    (OSCILLATING, STANDARD, COL3, 24, 2.73e-2),
    (OSCILLATING, STANDARD, COL3, 48, 1.4e-3),
    (OSCILLATING, STANDARD, COL3, 96, 3.19e-4),
    # exponential problem, standard
    (EXPONENTIAL, STANDARD, COL1, 10, 1.5e-3),
    (EXPONENTIAL, STANDARD, COL1, 20, 1.75e-4),
    (EXPONENTIAL, STANDARD, COL1, 40, 1.81e-5),
    (EXPONENTIAL, STANDARD, COL2, 10, 1.6e-3),
    (EXPONENTIAL, STANDARD, COL2, 20, 1.94e-4),
    (EXPONENTIAL, STANDARD, COL2, 40, 2.62e-5),
    (EXPONENTIAL, STANDARD, COL3, 10, 1.5e-3),
    (EXPONENTIAL, STANDARD, COL3, 20, 1.60e-4),
    (EXPONENTIAL, STANDARD, COL3, 40, 1.32e-5),
    # pure-forcing problem, standard
    (PURE_FORCING, STANDARD, COL1, 9, 2.0e-3),
    (PURE_FORCING, STANDARD, COL1, 18, 2.26e-4),
    (PURE_FORCING, STANDARD, COL1, 36, 2.16e-5),
    (PURE_FORCING, STANDARD, COL2, 9, 2.22e-3),
    (PURE_FORCING, STANDARD, COL2, 18, 2.66e-4),
    (PURE_FORCING, STANDARD, COL2, 36, 3.46e-5),
    (PURE_FORCING, STANDARD, COL3, 9, 1.5e-3),
    (PURE_FORCING, STANDARD, COL3, 18, 1.60e-4),
    (PURE_FORCING, STANDARD, COL3, 36, 1.32e-5),
    # improved end conditions (n=10 rows excluded)
    (OSCILLATING, IMPROVED, OPT30, 20, 2.08e-6),
    (OSCILLATING, IMPROVED, OPT30, 40, 7.50e-7),
    (EXPONENTIAL, IMPROVED, OPT30, 12, 2.15e-8),
    (EXPONENTIAL, IMPROVED, OPT30, 15, 3.65e-9),
    (PURE_FORCING, IMPROVED, OPT30, 12, 2.33e-8),
    (PURE_FORCING, IMPROVED, OPT30, 15, 1.67e-8),
]


def test_criterion_1_table_reproduction():
    worst_ratio = 1.0
    for bench, mode, params, n, published in PUBLISHED_CELLS:
        start = time.perf_counter()
        grid = lu_solve(build(bench.problem, params, mode, n))
        err = max_abs_error(grid, bench.exact)
        elapsed = time.perf_counter() - start
        ratio = err / published
        worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
        assert 0.1 <= ratio <= 10.0, (
            f"{bench.name} {mode.value} n={n}: computed {err:.3e} vs published "
            f"{published:.2e} (ratio {ratio:.2f})")
        assert elapsed < 5.0, f"cell {bench.name} n={n} took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (table reproduction, {len(PUBLISHED_CELLS)} cells, "
          f"worst ratio {worst_ratio:.2f}): PASS")


def test_criterion_2_convergence_orders():
    # standard mode: largest doubling on each problem and parameter column
    standard_pairs = {OSCILLATING.name: [48, 96], EXPONENTIAL.name: [20, 40],
                      PURE_FORCING.name: [18, 36]}
    observed = []
    for bench in BENCHMARKS:
        for params in (COL1, COL2, COL3):
            report = convergence_study(bench.problem, params, STANDARD,
                                       standard_pairs[bench.name], reference=bench.exact)
            order = report.orders[0]
            observed.append(order)
            assert order is not None and order >= 1.7, (
                f"{bench.name} standard order {order}")
    # improved mode: doubling pairs inside the asymptotic regime
    improved_witnesses = []
    for bench, pair in ((OSCILLATING, [20, 40]), (PURE_FORCING, [12, 24])):
        report = convergence_study(bench.problem, OPT30, IMPROVED, pair,
                                   reference=bench.exact)
        order = report.orders[0]
        improved_witnesses.append(order)
        assert order is not None and order >= 4.5, f"{bench.name} improved order {order}"
    print(f"\nACCEPTANCE 2 (orders: standard min {min(observed):.2f} >= 1.7, "
          f"improved {['%.2f' % o for o in improved_witnesses]} >= 4.5): PASS")


def test_criterion_3_truncation_identities():
    for params in (COL1, COL2, COL3):
        c = truncation_coeffs(params)
        assert c.c7 == 0 and c.c8 == 0
        assert isinstance(c.c7, (int, F))
    for delta in (0, 30, F(51, 2), -7):
        c = truncation_coeffs(optimal_family(delta))
        assert (c.c9, c.c10, c.c11, c.c12) == (0, 0, 0, 0)
    assert truncation_coeffs(COL2).c9 == -20
    assert truncation_coeffs(COL1).c9 == 92
    print("\nACCEPTANCE 3 (truncation identities, exact rationals): PASS")


def test_criterion_4_polynomial_exactness():
    problem = IvpProblem(0.0, 1.0, ForceExpr.zero(), ForceExpr.zero(), (0.0,) * 7)
    n = 12
    checks = 0
    for params in (COL1, COL2, COL3):
        for degree in range(9):
            for row in (7, 9, n):
                assert row_residual(problem, params, STANDARD, degree, n, row) == 0
                checks += 1
    for delta in (0, 30, F(51, 2), -7):
        params = optimal_family(delta)
        for degree in range(13):
            assert row_residual(problem, params, STANDARD, degree, n, 9) == 0
            checks += 1
    for row in range(1, 7):
        for degree in range(9):
            assert row_residual(problem, COL1, STANDARD, degree, n, row) == 0
            checks += 1
        for degree in range(13):
            assert row_residual(problem, COL1, IMPROVED, degree, n, row) == 0
            checks += 1
    print(f"\nACCEPTANCE 4 (polynomial exactness, {checks} exact-zero residuals): PASS")


def test_criterion_5_oracle_cross_checks():
    rk_errors = []
    spline_vs_rk = []
    for bench in BENCHMARKS:
        trajectory = rk_solve(bench.problem, 100_000)
        exact = bench.exact.evaluate(trajectory.t)
        rk_err = float(np.max(np.abs(trajectory.y - exact)))
        rk_errors.append(rk_err)
        assert rk_err <= 1e-9, f"{bench.name}: RK error {rk_err:.2e}"
        grid = lu_solve(build(bench.problem, OPT30, IMPROVED, 40))
        disagreement = max_abs_error(grid, trajectory)
        spline_vs_rk.append(disagreement)
        assert disagreement <= 1e-5, f"{bench.name}: spline vs RK {disagreement:.2e}"
    print(f"\nACCEPTANCE 5 (oracle: RK-vs-analytic max {max(rk_errors):.1e} <= 1e-9, "
          f"spline-vs-RK max {max(spline_vs_rk):.1e} <= 1e-5): PASS")


def random_cascade(rng: random.Random) -> CascadeModel:
    forces = []
    for _ in range(7):
        terms = []
        for _ in range(rng.randint(0, 2)):
            kind = rng.choice(["poly", "sin", "cos"])
            coeff = rng.uniform(-1, 1)
            if kind == "poly":
                terms.append(ForceTerm(coeff, rng.randint(0, 3)))
            else:
                terms.append(ForceTerm(coeff, rng.randint(0, 1), 0.0, kind,
                                       rng.uniform(-2, 2), rng.uniform(-1, 1)))
        forces.append(ForceExpr(tuple(terms)))
    return CascadeModel(
        n_scales=7,
        gamma=rng.choice([0.5, 1.0, 2.0]),
        forces=tuple(forces),
        init_velocities=tuple(rng.uniform(-1, 1) for _ in range(7)),
        interval=(0.0, 1.0),
    )


def test_criterion_6_cascade_reduction_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for trial in range(20):
        model = random_cascade(rng)
        _, direct = simulate_direct(model, 10_000)
        trajectory = rk_solve(reduce(model), 10_000)
        diff = float(np.max(np.abs(direct[:, 0] - trajectory.y)))
        worst = max(worst, diff)
        assert diff <= 1e-12, f"trial {trial}: disagreement {diff:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 6 (20 random cascades, worst disagreement {worst:.1e} "
          f"<= 1e-12, {elapsed:.1f}s < 60s): PASS")
