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
from numpy.lib.stride_tricks import sliding_window_view

from .forces import ForceExpr, tabulate_at, tabulate_grid

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

    with one symbolic derivative per step, then all F_m(a) in one pass, and
    returns g = F_N.  Only odd N closes to ``y^(N) + Gamma^N y = g`` (even N
    would flip the sign of the feedback term and is not supported).  Raises
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
    for m in range(n):                  # F_{m+1} = F_m' + (-Gamma)^m L^(1+m), built as one sum
        fs.append(g)
        g = ForceExpr(g.derivative().terms + tuple(
            t._derived((-model.gamma) ** m * t.coeff) for t in model.forces[m].terms))
        if not all(math.isfinite(term.coeff) for term in g.terms):
            tabulate_at(fs, names, a)       # a non-finite F_j(a), j <= m, comes first
            name = "g" if m + 1 == n else f"F_{m + 1}"
            raise ValueError(f"composed force {name}(t) = {g} has a coefficient beyond float "
                             f"range (Gamma^k times a force coefficient)")
    values = tabulate_at(fs, names, a)
    u = [(-model.gamma) ** m * v + f for m, (v, f) in enumerate(zip(model.init_velocities, values))]
    return IvpProblem(a=a, b=b, f=ForceExpr.constant(feedback), g=g, u=tuple(u))


def simulate_direct(model: CascadeModel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled scales with classical fixed-step Runge-Kutta.

    Returns ``(times, trajectories)`` where ``trajectories[i, k]`` is scale
    k+1 at ``times[i]``; shape (steps+1, n_scales).  The coupled system is
    linear, ``y' = -Gamma*P y + L(t)`` with P the cyclic shift, so it runs
    through the same blocked affine RK4 kernel as the companion-system
    oracle (``_rk4_linear``).  The forces are tabulated on the half-step
    grid up front, all in one ``tabulate_grid`` call that returns the
    C-ordered (2*steps + 1, n_scales) table the kernel reads, and ValueError
    names the first force L^(k) not finite there.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n = model.n_scales
    a, b = model.interval
    h = (b - a) / steps
    ftab = tabulate_grid(model.forces, [f"L{k + 1}" for k in range(n)], a, 0.5 * h, 2 * steps + 1)
    coupling = -model.gamma * np.roll(np.eye(n), 1, axis=1)    # row k picks y[k+1]
    out = _rk4_linear(coupling, np.eye(n), ftab,
                      np.array(model.init_velocities, dtype=float), h)
    return _knot_grid(a, b, steps), out


# --- blocked affine RK4 for linear systems --------------------------------

#: Steps per block of the blocked scan in ``_rk4_linear``.
_BLOCK = 16

#: Steps whose increment maps a time-varying A forms at once: the
#: temporaries of ``_rk4_increment`` hold about six (d, d + 3m) arrays per step.
_CHUNK = 128


def _rk4_increment(a0, a1, a2, e, h):
    """Increment map of one classical RK4 step of ``z' = A(t) z + E u(t)``.

    ``a0``, ``a1``, ``a2`` are A at the start, middle and end of the step
    (stacks of matrices broadcast together), ``e`` is the (d, m) forcing
    matrix.  The stages are run on the augmented state ``[z | u0 | u1 | u2]``,
    so the result ``Delta`` with ``z_next = z + Delta @ [z, u0, u1, u2]`` has
    shape (..., d, d + 3m); its first d columns are ``S - I`` for the step
    matrix S, kept apart from the identity so that small increments keep
    their digits.  One (d, d) A gives one (d, d + 3m) map; stacks of A give
    a stack of maps, one per step, from batched ``@`` (matmul).
    """
    d, m = e.shape
    z = np.zeros((d, d + 3 * m))
    z[:, :d] = np.eye(d)
    f0, f1, f2 = (np.zeros_like(z) for _ in range(3))
    for j, f in enumerate((f0, f1, f2)):
        f[:, d + j * m:d + (j + 1) * m] = e
    k1 = h * (a0 @ z + f0)
    k2 = h * (a1 @ (z + 0.5 * k1) + f1)
    k3 = h * (a1 @ (z + 0.5 * k2) + f1)
    k4 = h * (a2 @ (z + k3) + f2)
    return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _stage_values(utab):
    """u at the start, middle and end of each step, as rows of 3m floats.

    ``utab`` holds u on the half-step grid, C-ordered, so step i's three
    values are the 3m consecutive floats from row 2i: the result is an
    overlapping (steps, 3m) view with strides (2m, 1) floats, not a copy.
    """
    m = utab.shape[1]
    return sliding_window_view(utab.ravel(), 3 * m)[::2 * m]


def _forcing(delta, utab, sums):
    """Write the forcing vector c_i of every step into ``sums``, for one map ``delta``.

    c_i is Delta's three (d, m) stage blocks applied to u at the start,
    middle and end of step i; ``utab`` holds u on the half-step grid, and
    ``sums`` takes step i's row at [i % width, i // width] (the forcing rows
    of ``_scan``'s work array).  Each in-block offset is one product of its
    ``_stage_values`` rows with the C-ordered (3m, d) stage matrix.  The
    overlapping view is no BLAS operand; split into BLAS products, the
    product measured no faster for m > 1 and ten times slower for m = 1.
    """
    width, values = len(sums), _stage_values(utab)
    w = np.ascontiguousarray(delta[:, sums.shape[-1]:].T)     # rows j*m..(j+1)*m: stage j
    for k in range(min(width, len(values))):
        np.matmul(values[k::width], w, out=sums[k, :len(values[k::width])])


def _scan(work, c):
    """Solve ``x_{i+1} = x_i + D x_i + c_i`` from ``x_0 = 0`` into ``c``.

    ``work`` (overwritten) has shape (width, blocks + d, d): entry k holds
    the row vectors at in-block offset k, first the forcing c_i of all blocks
    (step i at [i % width, i // width]), then the rows of D^T.  ``c`` is
    C-contiguous with blocks * width rows; on return ``c[i]`` holds x_{i+1}
    (what ``c`` held before is not read).  States are rows, so every product
    is ``rows @ map`` with a C-ordered right operand.

    One pass over the in-block offsets forms, for all blocks together, the
    partial sums from a zero block start and the in-block map G_k = S^k - I
    (kept apart from I, like the step map).  The rows of G_k^T obey the same
    recurrence as the partial sums, with the rows of D^T as their forcing, so
    both ride in one entry of ``work`` and each offset is one product into a
    scratch entry and two contiguous adds.  The block starts obey
    ``s_{b+1} = s_b + s_b G^T + e_b`` (G the block map, e_b the block's last
    partial sum), which doubling solves: ``s[k:] += s[:-k] + s[:-k] @ G_k^T``
    with G_2k = 2 G_k + G_k^2, for k = 1, 2, 4, ....  Then each block start
    s gives its block's states as partial sum + s + s G_k^T: one
    (blocks, d) @ (d, d) product per offset into ``c``'s buffer, and the sums
    are copied to it in step order.
    """
    n, d = c.shape
    width = len(work)
    blocks = n // width
    sums = work[:, :-d]
    term = np.empty(work.shape[1:])
    for k in range(1, width):
        np.matmul(work[k - 1], work[k, -d:], out=term)
        term += work[k - 1]
        work[k] += term
    starts = np.vstack((np.zeros(d), sums[-1, :-1]))    # starts[b]: state at block b's start
    ends = starts[1:]                   # block b's end, from a zero start until the doubling
    k, g = 1, work[-1, -d:]            # g: G_k^T over k blocks
    while k < len(ends):
        ends[k:] += ends[:-k] + ends[:-k] @ g
        k *= 2
        if k < len(ends):
            g = 2.0 * g + g @ g
    products = c.reshape(width, blocks, d)
    np.matmul(starts, work[:, -d:], out=products)
    sums += products
    sums += starts
    c.reshape(blocks, width, d)[...] = sums.swapaxes(0, 1)


def _rk4_linear(a, e, utab, z0, h):
    """Classical RK4 for ``z' = A(t) z + E u(t)``; returns all states.

    ``utab`` holds u on the half-step grid, shape (2*steps + 1, m).  ``a`` is
    either one (d, d) matrix for constant A or a function ``a(lo, hi)``
    giving A on the half-step grid of steps lo..hi - 1, shape
    (2*(hi - lo) + 1, d, d).  Result: shape (steps + 1, d), row 0 is ``z0``.

    Each step is the affine map ``z <- z + D_i z + c_i`` with D_i = S_i - I
    (``_rk4_increment``).  For a constant A, the forcing vectors c_i of all
    steps and the one D^T are written straight into the work array of
    ``_scan``, z0 is folded into c_0, and ``_scan`` solves the recurrence
    into the output buffer: _BLOCK - 1 vectorised iterations within the
    blocks, then log2(blocks) doubling rounds over the block ends (about 135
    numpy calls for 10 000 steps).  A time-varying A is asked
    for ``_CHUNK`` steps at a time; their maps and forcing vectors are formed
    together, and the states are then stepped one map at a time.

    Overflow inside the run is not warned about; ValueError names the first
    step whose state is not finite.  For a constant A that state may be
    finite in exact arithmetic: the in-block and doubled block maps are
    powers of the step map, which can leave float range (and give
    inf * 0 = NaN) when the rates are too large for the step count, even on
    a zero solution.
    """
    steps = (len(utab) - 1) // 2
    d = e.shape[0]
    width, blocks = min(steps, _BLOCK), -(-steps // _BLOCK)
    out = np.empty((blocks * width + 1, d))     # rows past steps + 1 are scratch of the scan
    out[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        if callable(a):
            u3 = _stage_values(utab)
            for lo in range(0, steps, _CHUNK):
                hi = min(lo + _CHUNK, steps)
                window = a(lo, hi)
                delta = _rk4_increment(window[0:-1:2], window[1::2], window[2::2], e, h)
                c = np.einsum("ijk,ik->ij", delta[:, :, d:], u3[lo:hi])
                for i in range(lo, hi):
                    out[i + 1] = out[i] + delta[i - lo, :, :d] @ out[i] + c[i - lo]
        else:
            delta = _rk4_increment(a, a, a, e, h)
            work = np.zeros((width, blocks + d, d))
            work[:, -d:] = delta[:, :d].T
            _forcing(delta, utab, work[:, :-d])
            work[0, 0] += z0 + z0 @ work[0, -d:]
            _scan(work, out[1:])
    states = out[:steps + 1]
    if not np.isfinite(states).all():
        i = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise ValueError(f"RK4 state at step {i} of {steps} is beyond float range, or the "
                         f"products of the kernel's step maps left float range before it: the "
                         f"rates are too large for this step count (|f|*h^7 for a companion "
                         f"system)")
    return states
