"""Hierarchical cascade of velocity scales and its reduction to one IVP.

The model couples ``n_scales`` velocity variables y^(k) so that each scale is
damped through the next one down, with a driving force per scale:

    dy^(k)/dt = -Gamma * y^(k+1) + L^(k)(t),      k = 1..N (indices mod N)

Index arithmetic is fully cyclic (y^(k+N) is y^(k)).  Differentiating the
coupling once per scale, starting from scale 1, gives

    d^m y^(1)/dt^m = (-Gamma)^m y^(1+m) + F_m(t),
    F_0 = 0,   F_{m+1} = F_m' + (-Gamma)^m L^(1+m),

and at m = N the top scale closes on itself: for odd N,

    y^(N) + Gamma^N * y = g(t),   g = F_N.

``reduce`` runs this recurrence once, collecting the N initial derivative
values u_m = (-Gamma)^m v_(1+m) + F_m(a) of the top scale on the way.
``simulate_direct`` integrates the coupled system itself for
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forces import ForceExpr, tabulate

__all__ = [
    "CascadeModel",
    "IvpProblem",
    "reduce",
    "simulate_direct",
]


@dataclass(frozen=True)
class IvpProblem:
    """Initial value problem  y^(order) + f(t)*y = g(t)  on [a, b].

    ``u`` holds the initial data y(a), y'(a), ..., y^(order-1)(a); the order
    of the equation equals ``len(u)``.  The spline solver handles order 7
    only; other odd orders can still be integrated by the Runge-Kutta oracle.
    """

    a: float
    b: float
    f: ForceExpr
    g: ForceExpr
    u: tuple[float, ...]

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")
        if len(self.u) < 1:
            raise ValueError("u must hold at least one initial value")
        if not all(math.isfinite(v) for v in self.u):
            raise ValueError(f"initial values must be finite, got {self.u}")
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))

    @property
    def order(self) -> int:
        return len(self.u)


def _knot_grid(a: float, b: float, n: int) -> np.ndarray:
    """The n + 1 uniform points a + (b - a)/n * i of [a, b].

    The one formula for the spline's knots and the RK step points, so a grid
    and a trajectory on the same interval compare by index bit for bit.
    """
    return a + (b - a) / n * np.arange(n + 1)


@dataclass(frozen=True)
class CascadeModel:
    """Cyclically coupled scales with friction ``gamma`` and per-scale forces."""

    n_scales: int
    gamma: float
    forces: tuple[ForceExpr, ...]
    init_velocities: tuple[float, ...]
    interval: tuple[float, float]

    def __post_init__(self):
        if isinstance(self.n_scales, bool) or not isinstance(self.n_scales, (int, np.integer)):
            raise ValueError(f"n_scales must be an integer, got {self.n_scales!r}")
        if self.n_scales < 1:
            raise ValueError(f"n_scales must be positive, got {self.n_scales}")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if len(self.forces) != self.n_scales:
            raise ValueError(
                f"expected {self.n_scales} forces, got {len(self.forces)}")
        if len(self.init_velocities) != self.n_scales:
            raise ValueError(
                f"expected {self.n_scales} initial velocities, got {len(self.init_velocities)}")
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval endpoints must be finite, got {self.interval}")
        if not a < b:
            raise ValueError(f"need a < b, got interval {self.interval}")
        if not all(math.isfinite(v) for v in self.init_velocities):
            raise ValueError(f"initial velocities must be finite, got {self.init_velocities}")
        object.__setattr__(self, "forces", tuple(self.forces))
        object.__setattr__(self, "init_velocities",
                           tuple(float(v) for v in self.init_velocities))


def reduce(model: CascadeModel) -> IvpProblem:
    """Reduce the cascade to the single N-th order problem for scale 1.

    One loop over m = 0..N-1 runs the recurrence of the module docstring,

        u_m = (-Gamma)^m v_(1+m) + F_m(a),   F_{m+1} = F_m' + (-Gamma)^m L^(1+m),

    each F_{m+1} one merge of the children of F_m's terms with the scaled
    terms of L^(1+m), then reads all F_m(a) through one ``tabulate`` at a,
    and returns g = F_N.  Only odd N closes to ``y^(N) + Gamma^N y = g`` (even
    N would flip the sign of the feedback term and is not supported).  Raises
    ValueError, first in loop order, when Gamma^N, a coefficient of some F_m
    or its value F_m(a) is beyond float range.
    For odd N other than 7 the result can be integrated by the oracle but is
    rejected by the spline assembler.
    """
    n = model.n_scales
    if n % 2 == 0:
        raise ValueError(f"reduction requires an odd number of scales, got {n}")
    try:
        feedback = model.gamma ** n
    except OverflowError:
        raise ValueError(f"Gamma^N = {model.gamma}^{n} is beyond float range") from None
    a, b = model.interval
    names, fs, g = [f"F_{m}" for m in range(n)], [], ForceExpr.zero()    # g holds F_m till the end
    for m in range(n):          # F_{m+1} = F_m' + (-Gamma)^m L^(1+m), merged as one sum
        fs.append(g)
        g = ForceExpr(tuple(child for t in g.terms for child in t.derivative_terms()) + tuple(
            t._derived((-model.gamma) ** m * t.coeff) for t in model.forces[m].terms))
        if not all(math.isfinite(term.coeff) for term in g.terms):
            tabulate(fs, names[:m + 1], np.array([a]))  # a non-finite F_j(a), j <= m, comes first
            name = "g" if m + 1 == n else f"F_{m + 1}"
            raise ValueError(f"composed force {name}(t) = {g} has a coefficient beyond float "
                             f"range (Gamma^k times a force coefficient)")
    values = tabulate(fs, names, np.array([a]))[:, 0]
    u = [(-model.gamma) ** m * v + f for m, (v, f) in enumerate(zip(model.init_velocities, values))]
    return IvpProblem(a=a, b=b, f=ForceExpr.constant(feedback), g=g, u=tuple(u))


def simulate_direct(model: CascadeModel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled scales with classical fixed-step Runge-Kutta.

    Returns ``(times, trajectories)`` where ``trajectories[i, k]`` is scale
    k+1 at ``times[i]``; shape (steps+1, n_scales).  The coupled system is
    ``y' = -Gamma*P y + L(t)`` with P the cyclic shift: the constant matrix
    -Gamma*P, no drive matrices, and the forces L^(k) named ``L1``..``LN``, run by
    ``_rk4._rk4_linear`` (which also checks ``steps``).
    """
    from ._rk4 import _rk4_linear

    n = model.n_scales
    a, b = model.interval
    coupling = -model.gamma * np.roll(np.eye(n), 1, axis=1)    # row k picks y[k+1]
    out = _rk4_linear(coupling, np.empty((0, n, n)), np.eye(n), model.forces,
                      [f"L{k + 1}" for k in range(n)], np.array(model.init_velocities, dtype=float),
                      a, b, steps)
    return _knot_grid(a, b, steps), out
