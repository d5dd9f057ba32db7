import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from heptaspline import linsolve
from heptaspline.assembly import EndConditionMode, LinearSystem, build
from heptaspline.linsolve import LinearSolveError, lu_solve
from heptaspline.oracle import BENCHMARKS
from heptaspline.spline_params import SplineParams, optimal_family


def small_system(matrix, rhs) -> LinearSystem:
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = len(rhs)
    return LinearSystem(matrix=matrix, rhs=rhs, grid=np.arange(n + 1, dtype=float), y0=0.0)


class TestLuSolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        grid = lu_solve(small_system(np.eye(3), b))
        assert np.allclose(grid.y[1:], b)
        assert grid.y[0] == 0.0
        assert grid.residual_inf == 0.0

    def test_two_by_two_hand_elimination(self):
        grid = lu_solve(small_system([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]))
        assert np.allclose(grid.y[1:], [1.0, 1.0])

    def test_zero_matrix_is_singular(self):
        with pytest.raises(LinearSolveError, match="singular"):
            lu_solve(small_system(np.zeros((3, 3)), np.zeros(3)))

    def test_dependent_rows_is_singular(self):
        with pytest.raises(LinearSolveError, match="singular"):
            lu_solve(small_system([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0]))

    def test_nan_entries_rejected(self):
        with pytest.raises(LinearSolveError, match="non-finite"):
            lu_solve(small_system([[1.0, 0.0], [np.nan, 1.0]], [1.0, 1.0]))
        with pytest.raises(LinearSolveError, match="non-finite"):
            lu_solve(small_system(np.eye(2), [1.0, np.nan]))

    @pytest.mark.parametrize("eps,singular", [(1e-15, True), (1e-13, False)])
    def test_pivot_guard_threshold(self, eps, singular):
        # The second pivot is ~eps against a U row scale of 1: judged
        # singular below the 1e-14 relative tolerance, not only at zero.
        system = small_system([[1.0, 1.0, 0.0], [1.0, 1.0 + eps, 1.0], [0.0, 0.0, 1.0]],
                              [1.0, 1.0, 1.0])
        if singular:
            with pytest.raises(LinearSolveError, match="singular"):
                lu_solve(system)
        else:
            assert np.all(np.isfinite(lu_solve(system).y))

    @pytest.mark.parametrize("mode", EndConditionMode)
    # n = 384 is large enough for multithreaded BLAS to change the bits of a
    # one-call dgesv against dgetrf + dgetrs.
    @pytest.mark.parametrize("n", [20, 96, 384])
    def test_bit_identical_to_scipy_lu(self, mode, n):
        system = build(BENCHMARKS[1].problem, optimal_family(30), mode, n)
        expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(system.matrix), system.rhs)
        y = lu_solve(system).y[1:]
        assert y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("matrix,step", [([[1.0, 2.0], [1.0, 2.0]], 1),
                                             ([[2.0, 1.0], [4.0, 2.0]], 1),
                                             ([[0.0, 0.0], [0.0, 0.0]], 0)])
    def test_all_zero_row_of_u_is_singular(self, matrix, step):
        # A row of U is all zero: its pivot 0 is at most 1e-14 times its scale 0.
        with pytest.raises(LinearSolveError, match=r"pivot 0\.000e\+00 vs row scale 0\.000e\+00 "
                                                   rf"at elimination step {step}$"):
            lu_solve(small_system(matrix, [1.0, 1.0]))

    def test_row_scale_is_the_part_of_the_row_in_u(self):
        # LU keeps the multipliers 0.5 and 0.9 (of L) left of the diagonal;
        # the pivot 1e-18 of step 1 is judged against 1e-3 alone, the largest
        # entry of row 1 from its diagonal on.
        with pytest.raises(LinearSolveError, match=r"pivot 1\.000e-18 vs row scale 1\.000e-03 "
                                                   r"at elimination step 1$"):
            lu_solve(small_system([[1.0, 0.0, 0.0], [0.5, 1e-18, 1e-3], [0.9, 0.0, 1.0]],
                                  [1.0, 1.0, 1.0]))

    def test_overflowing_row_sums_rejected_without_warning(self):
        # Every entry is finite, but ||A||_inf = 2e308 is not: the residual
        # bound would be inf and accept anything.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearSolveError, match=r"^\|\|A\|\|_inf = inf is beyond float range"):
                lu_solve(small_system([[1e308, 1e308, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 3.0]],
                                      [1e308, 1.0, 2.0]))

    def test_nan_residual_rejected(self, monkeypatch):
        lapack = linsolve._lapack()
        exact_dgetrs = lapack.dgetrs

        def poisoned(*args):
            y, info = exact_dgetrs(*args)
            y[0] = np.nan
            return y, info

        monkeypatch.setattr(linsolve, "_lapack",
                            lambda: SimpleNamespace(dgetrf=lapack.dgetrf, dgetrs=poisoned))
        with pytest.raises(LinearSolveError, match=r"^backward residual nan exceeds bound"):
            lu_solve(small_system([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]))

    def test_non_finite_entries_rejected(self):
        with pytest.raises(LinearSolveError, match="non-finite"):
            lu_solve(small_system([[1.0, np.inf], [0.0, 1.0]], [1.0, 1.0]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"must be square, got shape \(2, 3\)"):
            lu_solve(small_system(np.ones((2, 3)), [1.0, 1.0]))

    def test_backward_residual_beyond_bound_rejected(self, monkeypatch):
        # A solve perturbed by a relative 1e-3 leaves a residual far above
        # the 1e-8 * ||A|| * ||y|| acceptance bound.
        lapack = linsolve._lapack()
        exact_dgetrs = lapack.dgetrs

        def perturbed(*args):
            y, info = exact_dgetrs(*args)
            return y * (1 + 1e-3), info

        monkeypatch.setattr(linsolve, "_lapack",
                            lambda: SimpleNamespace(dgetrf=lapack.dgetrf, dgetrs=perturbed))
        system = build(BENCHMARKS[1].problem, optimal_family(30), EndConditionMode.IMPROVED, 20)
        with pytest.raises(LinearSolveError,
                           match=r"backward residual 8\.502e\+09 exceeds bound 2\.928e\+07"):
            lu_solve(system)

    def test_backward_residual_bound_on_real_system(self):
        bench = BENCHMARKS[0]
        system = build(bench.problem, SplineParams(0, 0, 0, 60),
                       EndConditionMode.STANDARD, 24)
        grid = lu_solve(system)
        anorm = np.max(np.sum(np.abs(system.matrix), axis=1))
        ynorm = np.max(np.abs(grid.y[1:]))
        assert grid.residual_inf <= 1e-8 * anorm * ynorm

    def test_permuted_equation_order_gives_same_solution(self):
        bench = BENCHMARKS[1]
        system = build(bench.problem, SplineParams(10, 10, 10, 30),
                       EndConditionMode.STANDARD, 20)
        baseline = lu_solve(system).y
        rng = np.random.default_rng(0)
        perm = rng.permutation(system.matrix.shape[0])
        shuffled = LinearSystem(matrix=system.matrix[perm], rhs=system.rhs[perm],
                                grid=system.grid, y0=system.y0)
        permuted = lu_solve(shuffled).y
        assert np.max(np.abs(permuted - baseline)) <= 1e-10 * np.max(np.abs(baseline))


#: Solves the three benchmarks in both modes at n = 20 in a fresh process,
#: after running ``{setup}``; prints float.hex of y and residual_inf per solve,
#: then whether scipy.linalg was imported and whether scipy.linalg.lapack then
#: shares the loader's extension module.
_ROUTE_PROBE = """\
import importlib.util, sys
from heptaspline import EndConditionMode, build, linsolve, lu_solve, optimal_family
from heptaspline.oracle import BENCHMARKS
{setup}
for bench in BENCHMARKS:
    for mode in EndConditionMode:
        grid = lu_solve(build(bench.problem, optimal_family(30), mode, 20))
        print(*(v.hex() for v in grid.y), grid.residual_inf.hex())
print("scipy.linalg" in sys.modules, end=" ")
import scipy.linalg.lapack
print(scipy.linalg.lapack._flapack is linsolve._lapack())
"""


def _solve_benchmarks(setup: str = "") -> list[str]:
    done = subprocess.run([sys.executable, "-c", _ROUTE_PROBE.format(setup=setup)],
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.splitlines()


class TestLapackLoader:
    def test_reuses_the_extension_scipy_linalg_imported(self):
        assert linsolve._lapack() is scipy.linalg.lapack._flapack

    @pytest.mark.parametrize("content", [None, b""], ids=["missing", "unloadable"])
    def test_fallback_to_public_import_gives_the_same_bits(self, tmp_path, content):
        # The direct route loads the extension file alone; when that file is
        # missing or fails to load, scipy.linalg.lapack is imported instead.
        path = tmp_path / "_flapack.so"
        if content is not None:
            path.write_bytes(content)
        direct = _solve_benchmarks()
        fallback = _solve_benchmarks("linsolve._flapack_spec = lambda: importlib.util."
                                     f"spec_from_file_location(linsolve._FLAPACK, {str(path)!r})")
        assert len(direct) == 7
        assert direct[-1] == "False True"
        assert fallback[-1] == "True True"
        assert fallback[:-1] == direct[:-1]
