"""Hierarchical cascade of velocity scales and its reduction to one IVP.

The model couples ``n_scales`` velocity variables y^(k) so that each scale is
damped through the next one down, with a driving force per scale:

    dy^(k)/dt = -Gamma * y^(k+1) + L^(k)(t),      k = 1..N (indices mod N)

Index arithmetic is fully cyclic (y^(k+N) is y^(k)).  Iterating the coupling
N times turns the system into a single N-th order equation for the top scale,

    y^(N) + Gamma^N * y = g(t)        (N odd),

where g collects derivatives of the per-scale forces.  This module builds
g, derives the N initial derivative values of the top scale from the
per-scale initial velocities, and can also integrate the coupled system
directly for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forces import ForceExpr

__all__ = [
    "CascadeModel",
    "IvpProblem",
    "compose_g",
    "derive_initial_conditions",
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


@dataclass(frozen=True)
class CascadeModel:
    """Cyclically coupled scales with friction ``gamma`` and per-scale forces."""

    n_scales: int
    gamma: float
    forces: tuple[ForceExpr, ...]
    init_velocities: tuple[float, ...]
    interval: tuple[float, float]

    def __post_init__(self):
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
        if not a < b:
            raise ValueError(f"need a < b, got interval {self.interval}")
        object.__setattr__(self, "forces", tuple(self.forces))
        object.__setattr__(self, "init_velocities",
                           tuple(float(v) for v in self.init_velocities))


def compose_g(model: CascadeModel) -> ForceExpr:
    """Effective top-scale driving force of the reduced equation.

    g(t) = sum_{j=0}^{N-1} (-Gamma)^(N-1-j) * d^j/dt^j L^(N-j)(t),
    the pattern produced by differentiating the coupling N times starting
    from scale 1, with cyclic scale indices.
    """
    n = model.n_scales
    g = ForceExpr.zero()
    for j in range(n):
        weight = (-model.gamma) ** (n - 1 - j)
        scale_index = (n - 1 - j) % n        # 0-based index of scale N-j
        g = g + weight * model.forces[scale_index].derivative(j)
    return g


def derive_initial_conditions(model: CascadeModel) -> tuple[float, ...]:
    """Initial derivatives u_m = d^m y^(1)/dt^m (a) of the top scale.

    Repeated differentiation of the coupling gives, with cyclic indices,

        d^m y^(k)/dt^m = (-Gamma)^m y^(k+m)
                         + sum_{j=0}^{m-1} (-Gamma)^(m-1-j) d^j L^(k+m-1-j)/dt^j,

    evaluated here at k = 1 and t = a.
    """
    n = model.n_scales
    a = model.interval[0]
    v = model.init_velocities
    u = []
    for m in range(n):
        value = (-model.gamma) ** m * v[m % n]
        for j in range(m):
            scale_index = (m - 1 - j) % n    # 0-based index of scale 1+m-1-j
            weight = (-model.gamma) ** (m - 1 - j)
            value += weight * model.forces[scale_index].derivative(j)(a)
        u.append(value)
    return tuple(u)


def reduce(model: CascadeModel) -> IvpProblem:
    """Reduce the cascade to the single N-th order problem for scale 1.

    Only odd N closes to ``y^(N) + Gamma^N y = g`` (even N would flip the
    sign of the feedback term and is not supported).  For odd N other than 7
    the result can be integrated by the oracle but is rejected by the spline
    assembler.
    """
    n = model.n_scales
    if n % 2 == 0:
        raise ValueError(f"reduction requires an odd number of scales, got {n}")
    try:
        feedback = model.gamma ** n
    except OverflowError:
        raise ValueError(f"Gamma^N = {model.gamma}^{n} is beyond float range") from None
    a, b = model.interval
    return IvpProblem(
        a=a,
        b=b,
        f=ForceExpr.constant(feedback),
        g=compose_g(model),
        u=derive_initial_conditions(model),
    )


def simulate_direct(model: CascadeModel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled scales with classical fixed-step Runge-Kutta.

    Returns ``(times, trajectories)`` where ``trajectories[i, k]`` is scale
    k+1 at ``times[i]``; shape (steps+1, n_scales).  The coupled system is
    linear, ``y' = -Gamma*P y + L(t)`` with P the cyclic shift, so it runs
    through the same blocked affine RK4 kernel as the companion-system
    oracle (``_rk4_linear``); the forces are tabulated on the half-step grid
    up front.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n = model.n_scales
    a, b = model.interval
    h = (b - a) / steps
    half_grid = a + 0.5 * h * np.arange(2 * steps + 1)
    ftab = np.empty((half_grid.size, n))
    for k, force in enumerate(model.forces):
        ftab[:, k] = force.evaluate(half_grid)
    coupling = -model.gamma * np.roll(np.eye(n), 1, axis=1)    # row k picks y[k+1]
    out = _rk4_linear(coupling[None], np.eye(n), ftab,
                      np.array(model.init_velocities, dtype=float), h)
    times = a + h * np.arange(steps + 1)
    return times, out


# --- blocked affine RK4 for linear systems --------------------------------

#: Steps per block of the blocked recurrence in ``_rk4_linear``.
_BLOCK = 64


# Products of the tiny (d <= 7) matrices go through einsum rather than
# ``@``: matmul would hand them to BLAS, which is no faster at this size and
# raised the verify benchmark's peak RSS by 0.4 MB.
def _matmul(x, y):
    return np.einsum("...ij,...jk->...ik", x, y)


def _matvec(x, v):
    return np.einsum("...ij,...j->...i", x, v)


def _rk4_increment(a0, a1, a2, e, h):
    """Increment map of one classical RK4 step of ``z' = A(t) z + E u(t)``.

    ``a0``, ``a1``, ``a2`` are A at the start, middle and end of the step
    (stacks of matrices broadcast together), ``e`` is the (d, m) forcing
    matrix.  The stages are run on the augmented state ``[z | u0 | u1 | u2]``,
    so the result ``Delta`` with ``z_next = z + Delta @ [z, u0, u1, u2]`` has
    shape (..., d, d + 3m); its first d columns are ``S - I`` for the step
    matrix S, kept apart from the identity so that small increments keep
    their digits.
    """
    d, m = e.shape
    z = np.zeros((d, d + 3 * m))
    z[:, :d] = np.eye(d)
    f0, f1, f2 = (np.zeros_like(z) for _ in range(3))
    for j, f in enumerate((f0, f1, f2)):
        f[:, d + j * m:d + (j + 1) * m] = e
    k1 = h * (_matmul(a0, z) + f0)
    k2 = h * (_matmul(a1, z + 0.5 * k1) + f1)
    k3 = h * (_matmul(a1, z + 0.5 * k2) + f1)
    k4 = h * (_matmul(a2, z + k3) + f2)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _rk4_linear(a, e, utab, z0, h):
    """Classical RK4 for ``z' = A(t) z + E u(t)``; returns all states.

    ``utab`` holds u on the half-step grid, shape (2*steps + 1, m).  ``a`` is
    either one (1, d, d) matrix for constant A or A on the same half-step
    grid, shape (2*steps + 1, d, d).  Result: shape (steps + 1, d), row 0 is
    ``z0``.

    Each step is the affine map ``z <- z + D_i z + c_i``.  Rather than step
    one by one, the recurrence is solved in blocks of ``_BLOCK`` steps: the
    within-block partial sums of all blocks are formed together in the
    output buffer, one in-block offset at a time (the c values of an offset
    come from strided slices of ``utab``); one short loop then carries the
    state across block starts, and the block-start contributions
    ``(S^k - I) z + z`` are added in place.  A time-varying A has its step
    maps formed per offset, so beyond ``a`` itself it holds only the
    within-block powers, d*d floats per step.
    """
    steps = (len(utab) - 1) // 2
    d, m = e.shape
    if len(a) == 1:
        delta = _rk4_increment(a, a, a, e, h)
    windows = np.lib.stride_tricks.sliding_window_view(utab, 3, axis=0)[::2]   # (step, m, stage)
    blocks = -(-steps // _BLOCK)
    buf = np.empty((blocks * _BLOCK + 1, d))
    buf[0] = z0
    partial = buf[1:].reshape(blocks, _BLOCK, d)       # partial[b, k] -> state b*_BLOCK + k + 1
    # counts[k]: number of blocks that reach in-block offset k
    counts = [-(-(steps - k) // _BLOCK) for k in range(min(_BLOCK, steps))]
    powers = [np.zeros((1, d, d))]                     # powers[k] = S^k - I within each block
    for k, count in enumerate(counts):
        if len(a) > 1:      # time-varying A: step maps of steps k, k + _BLOCK, ...
            delta = _rk4_increment(*(a[2 * k + j::2 * _BLOCK][:count] for j in range(3)), e, h)
        dk = delta[..., :d]                                             # S_i - I
        ck = delta[..., d:].reshape(-1, d, 3, m)                       # (step, d, stage, m)
        w = np.einsum("...isc,...cs->...i", ck, windows[k::_BLOCK][:count])   # c_i
        if k:
            prev = partial[:count, k - 1]
            w += prev + _matvec(dk, prev)
        partial[:count, k] = w
        gk = powers[-1][:count]
        powers.append(gk + dk + _matmul(dk, gk))

    starts = np.empty((blocks, d))
    starts[0] = z0
    carry = np.broadcast_to(powers[-1][:blocks - 1], (blocks - 1, d, d))
    for b in range(blocks - 1):
        z = starts[b]
        starts[b + 1] = z + _matvec(carry[b], z) + partial[b, -1]
    for k, count in enumerate(counts):
        z = starts[:count]
        partial[:count, k] += z + _matvec(powers[k + 1][:count], z)
    return buf[:steps + 1]
