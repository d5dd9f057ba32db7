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

from .forces import ForceExpr, tabulate, tabulate_grid

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

    with one symbolic derivative per step, and returns g = F_N.  Only odd N
    closes to ``y^(N) + Gamma^N y = g`` (even N would flip the sign of the
    feedback term and is not supported).  Raises ValueError when Gamma^N,
    a coefficient of some F_m or its value F_m(a) is beyond float range.
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
    u, g = [], ForceExpr.zero()        # g holds F_m until the loop ends
    for m in range(n):
        weight = (-model.gamma) ** m
        u.append(weight * model.init_velocities[m] + tabulate(g, np.array([a]), f"F_{m}")[0])
        g = g.derivative() + weight * model.forces[m]
        if not all(math.isfinite(term.coeff) for term in g.terms):
            name = "g" if m + 1 == n else f"F_{m + 1}"
            raise ValueError(f"composed force {name}(t) = {g} has a coefficient beyond float "
                             f"range (Gamma^k times a force coefficient)")
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
    out = _rk4_linear(coupling[None], np.eye(n), ftab,
                      np.array(model.init_velocities, dtype=float), h)
    return _knot_grid(a, b, steps), out


# --- blocked affine RK4 for linear systems --------------------------------

#: Steps per block of the recursive scan in ``_rk4_linear``.
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
    their digits.  The stage products are batched ``@`` (matmul), which
    broadcasts a single A over the stack of steps.
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
    ``sums`` takes step i's row at [i % width, i // width] (``_sums`` of a
    ``_scan_work``).  Each in-block offset is one product of its
    ``_stage_values`` rows with the C-ordered (3m, d) stage matrix.  The
    overlapping view is no BLAS operand; split into BLAS products, the
    product measured no faster for m > 1 and ten times slower for m = 1.
    """
    width, values = len(sums), _stage_values(utab)
    w = np.ascontiguousarray(delta[0, :, sums.shape[-1]:].T)     # rows j*m..(j+1)*m: stage j
    for k in range(min(width, len(values))):
        np.matmul(values[k::width], w, out=sums[k, :len(values[k::width])])


def _scan_length(n):
    """Rows ``_scan`` needs for an n-step recurrence: n padded to whole blocks."""
    return n if n <= _BLOCK else -(-n // _BLOCK) * _BLOCK


def _scan_work(n, d, per_step):
    """Zeroed work array of ``_scan`` for an n-row scan.

    Its shape is (width, nb, r, d) with width = min(n, ``_BLOCK``) steps per
    block: entry [k, b] holds the row vectors at in-block offset k, first the
    partial sums, then the d rows of that step's transposed map D^T.  With
    ``per_step`` every block has its own maps: nb = n // width entries of
    one partial sum each.  Otherwise all blocks share one map per offset and
    one entry (nb = 1) holds all their partial sums.
    """
    width = min(n, _BLOCK)
    blocks = n // width
    return np.zeros((width, blocks, 1 + d, d) if per_step else (width, 1, blocks + d, d))


def _sums(work):
    """The (width, blocks, d) partial-sum rows of a ``_scan_work`` array."""
    return work[:, 0, :-work.shape[-1]] if work.shape[1] == 1 else work[:, :, 0]


def _scatter(view, lo, values):
    """Store the rows or maps ``values`` of steps lo, lo + 1, ... at [i % width, i // width]."""
    i = np.arange(lo, lo + len(values))
    view[i % len(view), i // len(view)] = values


def _scan(work, c):
    """Solve ``x_{i+1} = x_i + D_i x_i + c_i`` from ``x_0 = 0`` into ``c``.

    ``work`` (from ``_scan_work``, overwritten) holds the forcing c_i in its
    partial-sum rows and the transposed D_i in its map rows.  ``c`` is
    C-contiguous and ``len(c)`` is at most ``_BLOCK`` or a multiple of it;
    on return ``c[i]`` holds x_{i+1} (what ``c`` held before is not read).
    States are rows, so every product is ``rows @ map`` with a C-ordered
    right operand.

    The steps are cut into blocks.  One pass over the in-block offsets forms,
    for all blocks together, the partial sums from a zero block start and the
    in-block maps G_k = S_k...S_1 - I (kept apart from I, like the step maps).
    The rows of G_k^T obey the same recurrence as the partial sums, with the
    rows of D^T as their forcing, so both ride in one entry of ``work`` and
    each offset is one product into a scratch entry and two contiguous adds.
    A block's end map and last partial sum make the same kind of recurrence
    over the blocks, which this function solves by calling itself.  Then
    each block-start state s gives its block's states as partial sum + s +
    s G_k^T: the products of all offsets go into ``c``'s buffer, and the
    sums are copied to it in step order.
    """
    n, d = c.shape
    width, nb = work.shape[:2]
    blocks = n // width
    sums = _sums(work)
    term = np.empty(work.shape[1:])
    for k in range(1, width):
        np.matmul(work[k - 1], work[k, :, -d:], out=term)
        term += work[k - 1]
        work[k] += term
    if blocks == 1:
        c[...] = sums[:, 0]
        return
    size = _scan_length(blocks)
    ends = _scan_work(size, d, per_step=nb > 1)     # block end maps and last partial sums
    _scatter(_sums(ends), 0, sums[-1])
    if nb == 1:
        ends[:, :, -d:] = work[-1, :, -d:]
    else:
        _scatter(ends[:, :, -d:], 0, work[-1, :, -d:])
    starts = np.empty((size + 1, d))                # starts[b]: state at the start of block b
    starts[0] = 0.0
    _scan(ends, starts[1:])
    # s G^T: one (blocks, d) @ (d, d) product per offset for shared maps,
    # blocks (1, d) @ (d, d) products otherwise.
    rows = (1, blocks, d) if nb == 1 else (blocks, 1, d)
    s = starts[:blocks]
    products = c.reshape(width, *rows)
    np.matmul(s.reshape(rows), work[:, :, -d:], out=products)
    sums += products.reshape(width, blocks, d)
    sums += s
    c.reshape(blocks, width, d)[...] = sums.swapaxes(0, 1)


def _rk4_linear(a, e, utab, z0, h):
    """Classical RK4 for ``z' = A(t) z + E u(t)``; returns all states.

    ``utab`` holds u on the half-step grid, shape (2*steps + 1, m).  ``a`` is
    either one (1, d, d) matrix for constant A or a function ``a(lo, hi)``
    giving A on the half-step grid of steps lo..hi - 1, shape
    (2*(hi - lo) + 1, d, d).  Result: shape (steps + 1, d), row 0 is ``z0``.

    Each step is the affine map ``z <- z + D_i z + c_i`` with D_i = S_i - I
    (``_rk4_increment``).  The forcing vectors c_i of all steps and the
    transposed D_i are written straight into the work array of ``_scan``,
    z0 is folded into c_0, and ``_scan`` solves the recurrence by a
    recursive blocked scan into the output buffer: O(_BLOCK) vectorised
    iterations per level, O(log steps) levels.  A constant A keeps one
    D^T per in-block offset; a time-varying A is asked for ``_CHUNK`` steps
    at a time and keeps d*d floats per step.

    Overflow inside the run is not warned about; ValueError names the first
    step whose state is not finite.  That state may be finite in exact
    arithmetic: the in-block and block-end maps are products of step maps,
    which can leave float range (and give inf * 0 = NaN) when the rates are
    too large for the step count, even on a zero solution.
    """
    steps = (len(utab) - 1) // 2
    d = e.shape[0]
    size = _scan_length(steps)
    out = np.empty((size + 1, d))          # rows past steps + 1 are scratch of the scan
    with np.errstate(over="ignore", invalid="ignore"):
        if callable(a):
            work = _scan_work(size, d, per_step=True)
            u3 = _stage_values(utab)
            for lo in range(0, steps, _CHUNK):
                hi = min(lo + _CHUNK, steps)
                window = a(lo, hi)
                delta = _rk4_increment(window[0:-1:2], window[1::2], window[2::2], e, h)
                _scatter(work[:, :, -d:], lo, delta[..., :d].swapaxes(1, 2))
                _scatter(_sums(work), lo, np.einsum("ijk,ik->ij", delta[:, :, d:], u3[lo:hi]))
        else:
            delta = _rk4_increment(a, a, a, e, h)
            work = _scan_work(size, d, per_step=False)
            work[:, :, -d:] = delta[..., :d].swapaxes(1, 2)
            _forcing(delta, utab, _sums(work))
        _sums(work)[0, 0] += z0 + z0 @ work[0, 0, -d:]
        _scan(work, out[1:])
    out[0] = z0
    states = out[:steps + 1]
    if not np.isfinite(states).all():
        i = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise ValueError(f"RK4 state at step {i} of {steps} is beyond float range, or the "
                         f"products of the kernel's step maps left float range before it: the "
                         f"rates are too large for this step count (|f|*h^7 for a companion "
                         f"system)")
    return states
