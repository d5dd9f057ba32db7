"""Independent reference solutions, error metrics and convergence studies.

The reference integrator rewrites y^(N) = g - f*y as the companion
first-order system for (y, y', ..., y^(N-1)) and runs classical fixed-step
fourth-order Runge-Kutta.  It shares the problem type, the knot grid and the
force algebra with the spline path but no numerical method, so agreement
between the two is a genuine cross-check.

Also bundled here: the three analytically solvable benchmark problems used
by the error tables and the CLI example configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .assembly import EndConditionMode, build
from .cascade import IvpProblem, _knot_grid
from .forces import ForceExpr, parse, tabulate
from .linsolve import SolutionGrid, lu_solve
from .spline_params import SplineParams

__all__ = [
    "RkTrajectory",
    "ConvergenceReport",
    "Benchmark",
    "BENCHMARKS",
    "rk_solve",
    "max_abs_error",
    "convergence_study",
]


@dataclass
class RkTrajectory:
    """States at the integrator's own step points on [a, b]; no interpolation.

    Step k is at ``t[k] = a + (b - a) / steps * k``, the knot formula of
    ``build`` (``cascade._knot_grid``).  A spline grid is compared with it by
    step index, not by time (see ``max_abs_error``).
    """

    a: float
    b: float
    states: np.ndarray      # shape (steps+1, order); column 0 is y

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def t(self) -> np.ndarray:
        return _knot_grid(self.a, self.b, self.steps)

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 0]


def rk_solve(problem: IvpProblem, steps: int) -> RkTrajectory:
    """Classical RK4 on the companion system at uniform step (b-a)/steps.

    Works for any equation order (the state dimension is ``problem.order``).
    The companion system of ``y^(N) = g - f*y`` is ``z' = A(t) z + e_N g(t)``
    with A(t) = C - f(t) e_N e_1^T for the shift matrix C: the constant
    matrix C, f as the one coefficient with drive -e_N e_1^T, and the force g, run by
    ``_rk4._rk4_linear`` (which also checks ``steps``).
    """
    from ._rk4 import _rk4_linear

    order = problem.order
    companion = np.zeros((order, order))
    companion[:-1, 1:] = np.eye(order - 1)
    drive = np.zeros((1, order, order))
    drive[0, -1, 0] = -1.0
    forcing = np.zeros((order, 1))
    forcing[-1] = 1.0
    states = _rk4_linear(companion, drive, forcing, (problem.g, problem.f), ("g", "f"),
                         np.array(problem.u, dtype=float), problem.a, problem.b, steps)
    return RkTrajectory(problem.a, problem.b, states)


Reference = Union[ForceExpr, RkTrajectory]


def max_abs_error(grid: SolutionGrid, reference: Reference) -> float:
    """max over knots of |y_i - y_ref(t_i)|.

    ``reference`` is either a closed-form solution or an RK trajectory.  An
    RK trajectory is sampled by index, every (steps / n)-th step: n must
    divide its step count, and the n + 1 knots must be ``cascade._knot_grid``
    of the trajectory's own interval [a, b], the knots ``build`` makes, else
    ValueError.  ValueError where a closed form is not finite on the knots.
    """
    if isinstance(reference, RkTrajectory):
        n, a, b, steps = len(grid.t) - 1, reference.a, reference.b, reference.steps
        if n < 1 or steps % n:
            raise ValueError(f"n={n} does not divide the {steps} steps of the RK reference, "
                             f"so not every knot is a step point")
        if not np.array_equal(grid.t, _knot_grid(a, b, n)):
            raise ValueError(f"the knots are not the {n + 1} uniform knots on the RK "
                             f"reference's interval [{a!r}, {b!r}]")
        ref = reference.y[::steps // n]
    else:
        ref = tabulate((reference,), ("exact",), grid.t)[0]
    return float(np.maximum.reduce(np.abs(grid.y - ref)))


@dataclass
class ConvergenceReport:
    """Errors per n and observed orders across exact doublings.

    ``entries`` holds (n_i, E_{n_i}) in increasing n.  ``orders[i]`` is
    log2(E_{n_i} / E_{n_{i+1}}) when n_{i+1} == 2 n_i, else None;
    len(orders) == len(entries) - 1.
    """

    entries: tuple[tuple[int, float], ...]
    orders: tuple[Optional[float], ...]


def convergence_study(problem: IvpProblem, params: SplineParams,
                      mode: EndConditionMode, n_list: Sequence[int],
                      reference: Optional[ForceExpr] = None) -> ConvergenceReport:
    """Solve for each n and report max-abs errors against a reference.

    When no closed-form ``reference`` is given, each grid is measured against
    its own RK run on the problem's interval, 100 * n steps (100 per knot
    interval), sampled by step index (see ``max_abs_error``) and run right
    after that grid's solve.  Only an empty or not strictly increasing
    ``n_list`` is rejected before the first solve; ``build`` rejects an n
    below ``min_knots(mode)`` before that n's RK run.  ValueError where a
    closed-form reference is not finite on the knots or an RK run leaves
    float range.
    """
    ns = list(n_list)
    if not ns:
        raise ValueError("n_list is empty")
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {ns}")
    entries = []
    for n in ns:
        grid = lu_solve(build(problem, params, mode, n))
        ref = rk_solve(problem, 100 * n) if reference is None else reference
        entries.append((n, max_abs_error(grid, ref)))
    orders = tuple(math.log2(e1 / e2) if n2 == 2 * n1 and e1 > 0.0 and e2 > 0.0 else None
                   for (n1, e1), (n2, e2) in zip(entries, entries[1:]))
    return ConvergenceReport(entries=tuple(entries), orders=orders)


# --- analytically solvable benchmark problems ----------------------------

@dataclass(frozen=True)
class Benchmark:
    name: str
    problem: IvpProblem
    exact: ForceExpr


def _benchmark(name: str, a: float, b: float, c: float, exact: str,
               u: tuple[float, ...]) -> Benchmark:
    """y^(7) + c y = g on [a, b] solved by ``exact``; g = exact^(7) + c exact.

    g is derived; u stays transcribed, since ``exact.derivative(m)`` at a
    rounds three of the oscillating entries (m = 2, 5, 6) one ulp away.
    """
    y = parse(exact)
    problem = IvpProblem(a, b, ForceExpr.constant(c), y.derivative(7) + c * y, u)
    return Benchmark(name, problem, y)


_s1, _c1 = math.sin(1.0), math.cos(1.0)
_U_EXP = (0.0, 1.0, 0.0, -3.0, -8.0, -15.0, -24.0)      # t (1 - t) e^t and its derivatives at 0

#: The three analytically solvable problems behind the bundled configs.
BENCHMARKS: tuple[Benchmark, ...] = (
    # trig forcing with unit feedback; solution (t^2 - 1) sin t
    _benchmark("oscillating", -1.0, 1.0, 1.0, "t^2*sin(t) - sin(t)",
               (0.0, 2 * _s1, -4 * _c1 - 2 * _s1, 6 * _c1 - 6 * _s1, 8 * _c1 + 12 * _s1,
                -20 * _c1 + 10 * _s1, -12 * _c1 - 30 * _s1)),
    # exponential forcing with f = -1; solution t (1 - t) e^t
    _benchmark("exponential", 0.0, 1.0, -1.0, "t*exp(t) - t^2*exp(t)", _U_EXP),
    # the same solution with f = 0 (no feedback term)
    _benchmark("pure-forcing", 0.0, 1.0, 0.0, "t*exp(t) - t^2*exp(t)", _U_EXP),
)
