"""Independent reference solutions, error metrics and convergence studies.

The reference integrator rewrites y^(N) = g - f*y as the companion
first-order system for (y, y', ..., y^(N-1)) and runs classical fixed-step
fourth-order Runge-Kutta.  It shares no code with the spline path, so
agreement between the two is a genuine cross-check.

Also bundled here: the three analytically solvable benchmark problems used
by the error tables and the CLI example configs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .assembly import EndConditionMode, build, min_knots
from .cascade import IvpProblem, _rk4_linear
from .forces import ForceExpr, parse, tabulate, tabulate_grid
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
    """States at the integrator's own step points; no interpolation."""

    t: np.ndarray
    states: np.ndarray      # shape (steps+1, order); column 0 is y

    @property
    def y(self) -> np.ndarray:
        return self.states[:, 0]

    def value_at(self, t: float) -> float:
        """y at a step point; raises if ``t`` is not on the step grid."""
        return float(self.y[self._step_indices(t)])

    def _step_indices(self, t) -> np.ndarray:
        """Step index of each time in ``t``; raises if one is not a step point."""
        t = np.asarray(t, dtype=float)
        h = (self.t[-1] - self.t[0]) / (len(self.t) - 1)     # not t[1] - t[0]: rounded at a
        pos = (t - self.t[0]) / h
        off = ~((pos > -0.5) & (pos < len(self.t) - 0.5))     # also catches NaN
        idx = np.rint(np.where(off, 0.0, pos)).astype(np.intp)
        off |= np.abs(self.t[idx] - t) > 1e-3 * h             # more than h/1000 off
        if np.any(off):
            raise ValueError(f"t={t[off].flat[0]} is not a step point of this trajectory")
        return idx


def rk_solve(problem: IvpProblem, steps: int) -> RkTrajectory:
    """Classical RK4 on the companion system at uniform step (b-a)/steps.

    Works for any equation order (the state dimension is ``problem.order``).
    The companion system ``z' = A(t) z + e_N g(t)``, with ``-f`` in the last
    row of A, is linear, so it runs through the blocked affine RK4 kernel
    shared with ``simulate_direct`` (``_rk4_linear``).  g and f are tabulated
    together on the half-step grid by ``tabulate_grid`` (one basis product,
    sin and cos by angle addition); ValueError names the one not finite
    there, or says where the run leaves float range.  A is one matrix when
    f is constant there; otherwise the kernel asks for it a chunk of steps
    at a time.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    order = problem.order
    a, b = problem.a, problem.b
    h = (b - a) / steps
    table = tabulate_grid((problem.g, problem.f), ("g", "f"), a, 0.5 * h, 2 * steps + 1)
    gtab, ftab = np.ascontiguousarray(table[:, :1]), table[:, 1]
    companion = np.zeros((1, order, order))
    companion[0, :-1, 1:] = np.eye(order - 1)
    companion[0, -1, 0] = -ftab[0]

    def window(lo, hi):
        """A on the half-step grid of steps lo..hi - 1."""
        stack = companion.repeat(2 * (hi - lo) + 1, axis=0)
        stack[:, -1, 0] = -ftab[2 * lo:2 * hi + 1]
        return stack

    forcing = np.zeros((order, 1))
    forcing[-1] = 1.0
    states = _rk4_linear(companion if np.all(ftab == ftab[0]) else window, forcing,
                         gtab, np.array(problem.u, dtype=float), h)
    return RkTrajectory(t=a + h * np.arange(steps + 1), states=states)


Reference = Union[ForceExpr, RkTrajectory]


def max_abs_error(grid: SolutionGrid, reference: Reference) -> float:
    """max over knots of |y_i - y_ref(t_i)|.

    ``reference`` is either a closed-form solution or an RK trajectory whose
    step points contain every knot.  ValueError where a closed form is not
    finite on the knots.
    """
    if isinstance(reference, RkTrajectory):
        ref = reference.y[reference._step_indices(grid.t)]
    else:
        ref = tabulate(reference, grid.t, "exact")
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

    When no closed-form ``reference`` is given, a fine RK run with
    100 * max(n_list) steps stands in; every n must then divide that step
    count so the knots land on RK step points.  ValueError where a
    closed-form reference is not finite on the knots or the RK run leaves
    float range.
    """
    ns = list(n_list)
    if any(n2 <= n1 for n1, n2 in zip(ns, ns[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {ns}")
    least = min_knots(mode)
    if ns and ns[0] < least:
        raise ValueError(f"{mode.value} end conditions need n >= {least}, got n={ns[0]}")
    if reference is None:
        steps = 100 * max(ns)
        for n in ns:
            if steps % n:
                raise ValueError(f"n={n} does not divide the {steps} steps of the RK reference")
        reference = rk_solve(problem, steps=steps)
    entries = []
    for n in ns:
        grid = lu_solve(build(problem, params, mode, n))
        entries.append((n, max_abs_error(grid, reference)))
    orders = tuple(math.log2(e1 / e2) if n2 == 2 * n1 and e1 > 0.0 and e2 > 0.0 else None
                   for (n1, e1), (n2, e2) in zip(entries, entries[1:]))
    return ConvergenceReport(entries=tuple(entries), orders=orders)


# --- analytically solvable benchmark problems ----------------------------

@dataclass(frozen=True)
class Benchmark:
    name: str
    problem: IvpProblem
    exact: ForceExpr


def _oscillating() -> Benchmark:
    """Trig forcing on [-1, 1] with unit feedback; solution (t^2 - 1) sin t."""
    s1, c1 = math.sin(1.0), math.cos(1.0)
    problem = IvpProblem(
        a=-1.0, b=1.0,
        f=ForceExpr.constant(1.0),
        g=parse("-t^2*cos(t) + 43*cos(t) + t^2*sin(t) - 14*t*sin(t) - sin(t)"),
        u=(0.0,
           2 * s1,
           -4 * c1 - 2 * s1,
           6 * c1 - 6 * s1,
           8 * c1 + 12 * s1,
           -20 * c1 + 10 * s1,
           -12 * c1 - 30 * s1),
    )
    return Benchmark("oscillating", problem, parse("t^2*sin(t) - sin(t)"))


def _exponential() -> Benchmark:
    """Exponential forcing on [0, 1] with f = -1; solution t (1 - t) e^t."""
    problem = IvpProblem(
        a=0.0, b=1.0,
        f=ForceExpr.constant(-1.0),
        g=parse("-35*exp(t) - 14*t*exp(t)"),
        u=(0.0, 1.0, 0.0, -3.0, -8.0, -15.0, -24.0),
    )
    return Benchmark("exponential", problem, parse("t*exp(t) - t^2*exp(t)"))


def _pure_forcing() -> Benchmark:
    """Same solution as ``exponential`` but with f = 0 (no feedback term)."""
    problem = IvpProblem(
        a=0.0, b=1.0,
        f=ForceExpr.zero(),
        g=parse("-35*exp(t) - 13*t*exp(t) - t^2*exp(t)"),
        u=(0.0, 1.0, 0.0, -3.0, -8.0, -15.0, -24.0),
    )
    return Benchmark("pure-forcing", problem, parse("t*exp(t) - t^2*exp(t)"))


#: The three analytically solvable problems behind the bundled configs.
BENCHMARKS: tuple[Benchmark, ...] = (_oscillating(), _exponential(), _pure_forcing())
