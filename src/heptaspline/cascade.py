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

from .forces import ForceExpr, ShiftBasis, tabulate

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
            tabulate(fs, names, np.array([a]))      # a non-finite F_j(a), j <= m, comes first
            name = "g" if m + 1 == n else f"F_{m + 1}"
            raise ValueError(f"composed force {name}(t) = {g} has a coefficient beyond float "
                             f"range (Gamma^k times a force coefficient)")
    values = np.concatenate(tabulate(fs, names, np.array([a])))
    u = [(-model.gamma) ** m * v + f for m, (v, f) in enumerate(zip(model.init_velocities, values))]
    return IvpProblem(a=a, b=b, f=ForceExpr.constant(feedback), g=g, u=tuple(u))


def simulate_direct(model: CascadeModel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the coupled scales with classical fixed-step Runge-Kutta.

    Returns ``(times, trajectories)`` where ``trajectories[i, k]`` is scale
    k+1 at ``times[i]``; shape (steps+1, n_scales).  The coupled system is
    ``y' = -Gamma*P y + L(t)`` with P the cyclic shift: the constant matrix
    -Gamma*P, no drive matrices, and the forces L^(k) named ``L1``..``LN``, run by
    ``_rk4_linear`` (which also checks ``steps``).
    """
    n = model.n_scales
    a, b = model.interval
    coupling = -model.gamma * np.roll(np.eye(n), 1, axis=1)    # row k picks y[k+1]
    out = _rk4_linear(coupling, np.empty((0, n, n)), np.eye(n), model.forces,
                      [f"L{k + 1}" for k in range(n)], np.array(model.init_velocities, dtype=float),
                      a, b, steps)
    return _knot_grid(a, b, steps), out


# --- blocked affine RK4 for linear systems --------------------------------

#: Steps per block of the blocked scan in ``_rk4_linear``.
_BLOCK = 32

#: How many times the rounding of tabulating a force ``_shift_forcing`` lets
#: the shifted forcing lose, about 6e-14 of the force's size.
_SHIFT_LOSS = 1 << 8

#: Largest m*n*k of the products ``_scan`` hands to BLAS at once.  OpenBLAS
#: runs a GEMM up to 2^18 on one thread; larger ones it splits over threads,
#: which made the scan about three times slower while other work held the cores.
_GEMM_SIZE = 1 << 18

#: Steps whose increment maps the per-step loop forms at once: the
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


def _shift_forcing(delta, forces, start, h, width, blocks):
    """The forcing by ``forces`` of a blocked RK4 run with the one map ``delta``, as phi
    at the block starts and a stack of maps Q_k; None where phi cannot carry the forces.

    Step i = b*width + k starts at s_b + k h, with s_b = start + b*width*h,
    and u(s_b + tau) = phi(s_b) T_tau^T W for the forces' ``ShiftBasis`` phi,
    its shift matrices T_tau and weights W, so the step's forcing row is

        c_i = sum_j Delta_j u(s_b + (2k + j) h/2) = phi(s_b) @ Q_k,
        Q_k = sum_j T_{(2k+j)h/2}^T W Delta_j^T,

    with Delta_j the three (d, m) stage blocks of ``delta``.  Returns
    ``(phi at the block starts, Q stacked over k)``, or None when

    - ``ShiftBasis`` refuses the basis as too large to shift;
    - some reach_bk = sum_i size_i(s_b) max_tau |(T_tau^T W)_ik|, a bound on
      |u_k| over block b, is not below half the float range, where size_i is
      the envelope |t|^q exp(r t) of phi_i plus tiny (1 + |t|^q + exp(r t)),
      what rounding below the normal range may lose in units of eps: a force
      may then not be finite on the grid, or phi overflows where it is;
    - or some reach_bk exceeds ``_SHIFT_LOSS`` times force k's term size,
      the largest sum_i size_i(s_b) |W_ik| over the block starts: eps reach
      bounds the rounding of the expansion (the binomials of (s + tau)^q
      cancel where s < 0, and exp(r tau) grows what phi(s_b) lost below
      the normal range), eps times the term size that of tabulating u_k.
    """
    d, m = delta.shape[0], len(forces)
    try:
        basis = ShiftBasis(forces)
    except ValueError:      # too large to shift
        return None
    starts = start + h * (width * np.arange(blocks))
    phi = basis.values(starts)
    lifted = basis.shifted(0.5 * h * np.arange(2 * width + 1), basis.weights)
    power = np.abs(starts)[:, None] ** basis.powers
    growth = np.exp(basis.rates * starts[:, None])
    size = power * growth + np.finfo(float).tiny * (1.0 + power + growth)
    reach = size @ np.abs(lifted).max(axis=0)
    terms = (size @ np.abs(basis.weights)).max(axis=0)
    if not (reach.max() <= 0.5 * np.finfo(float).max and np.all(reach <= _SHIFT_LOSS * terms)):
        return None
    stages = delta[:, d:]
    return phi, sum(lifted[j:j + 2 * width:2] @ stages[:, j * m:(j + 1) * m].T for j in range(3))


def _scan(phi, work, z0, out):
    """Solve ``x_{i+1} = x_i + D x_i + c_i`` from ``x_0 = z0`` into ``out``,
    where c_i = phi[b] @ Q_k for step i = b*width + k.

    ``work`` (overwritten) has shape (width, n + d, d): entry k holds the n
    rows of Q_k, then the rows of D^T.  ``out`` is C-contiguous with
    len(phi) * width rows; on return ``out[i]`` holds x_{i+1} (what ``out``
    held before is not read).  States are rows, so every product is
    ``rows @ map`` with a C-ordered right operand.

    A block's partial sums from a zero block start are linear in its phi:
    phi @ R_k at offset k, with R_0 = Q_0 and R_k = R_{k-1} + R_{k-1} D^T +
    Q_k.  The rows of G_k^T, for the in-block map G_k = S^k - I (kept apart
    from I, like the step map), obey the same recurrence with the rows of D^T
    as their forcing, so both ride in one entry of ``work`` and ``_doubling``
    forms them all on n + d rows.  The block starts obey
    ``s_{b+1} = s_b + s_b G^T + e_b`` from s_0 = z0, with G the block map and
    e_b = phi[b] @ R_{width-1} the block's last partial sum, which
    ``_doubling`` solves over the blocks.  Each step's state is then its
    partial sum + s + s G_k^T for its block's start s: the product of
    [phi | s | s] with [R_k; G_k^T; I] over all k writes them all into
    ``out`` in step order, a few blocks at a time (``_GEMM_SIZE``).
    """
    width, rows, d = work.shape
    _doubling(work, work[0, -d:])
    maps = work.swapaxes(0, 1).reshape(rows, width * d)    # R_k over G_{k+1}^T, k = 0..width-1
    starts = np.empty((len(phi), d))    # starts[b]: state at block b's start
    starts[0] = z0
    np.matmul(phi[:-1], maps[:-d, -d:], out=starts[1:])
    _doubling(starts, work[-1, -d:])
    lhs, rhs = np.hstack((phi, starts, starts)), np.vstack((maps, np.tile(np.eye(d), width)))
    states, chunk = out.reshape(len(phi), width * d), max(1, _GEMM_SIZE // rhs.size)
    for lo in range(0, len(phi), chunk):
        np.matmul(lhs[lo:lo + chunk], rhs, out=states[lo:lo + chunk])


def _doubling(x, g):
    """Solve ``x_k = x_{k-1} + x_{k-1} @ g + f_k`` along axis 0 in place (x_{-1} = 0).

    ``x`` holds f on entry and the solution on return; ``g`` is G_1^T for
    the step map S = I + G_1.  Round s adds ``x[:-s] + x[:-s] @ G_s^T`` to
    ``x[s:]``, with G_2s = 2 G_s + G_s^2, for s = 1, 2, 4, ...
    (Hillis-Steele): log2(len(x)) rounds of one product each.
    """
    k = 1
    while k < len(x):
        x[k:] += x[:-k] + x[:-k] @ g
        k *= 2
        if k < len(x):
            g = 2.0 * g + g @ g


def _rk4_linear(a, drives, e, forces, names, z0, start, end, steps):
    """Classical RK4 for ``z' = A(t) z + E u(t)`` at ``steps`` equal steps over
    [start, end]; all states, shape (steps + 1, d), row 0 is ``z0``.

    The system is data.  u is the first m = E.shape[1] of ``forces``; the
    others, v_k, are A's coefficients: A(t) = ``a`` + sum_k v_k(t) ``drives[k]``
    for the constant (d, d) matrix ``a`` and the (K, d, d) stack ``drives``.
    ``names`` name the forces in the errors of ``tabulate``, which gives
    every force value the kernel reads.  ValueError where ``steps`` < 1.

    Each step is the affine map ``z <- z + D_i z + c_i`` with D_i = S_i - I
    (``_rk4_increment``).  When every v_k has a zero symbolic derivative,
    their values at ``start`` are folded into ``a`` and A is constant.  Then
    the forcing vectors of all steps are phi(s_b) @ Q_k, from shifts of u's
    basis phi evaluated at the block starts s_b only (``_shift_forcing``),
    and ``_scan`` solves the recurrence into the output buffer by doubling
    within the blocks and over the block starts.  Otherwise (a time-varying
    A, or a u that basis cannot carry) the forces are tabulated on the
    half-step grid start + (h/2) j, j = 0..2*steps (ValueError names the
    first force not finite there), and ``_CHUNK`` steps at a time, their A
    (``a`` plus one ``tensordot`` of the table's v_k rows with ``drives``),
    maps and forcing vectors are formed together from slices of the table;
    the states are then stepped one map at a time.

    Overflow inside the run is not warned about; ValueError names the first
    step whose state is not finite.  For a constant A that state may be
    finite in exact arithmetic: the in-block and doubled block maps are
    powers of the step map, which can leave float range (and give
    inf * 0 = NaN) when the rates are too large for the step count, even on
    a zero solution.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    d, m = e.shape
    h = (end - start) / steps
    if forces[m:] and all(v.derivative().is_zero for v in forces[m:]):   # fold into A at start
        values = np.concatenate(tabulate(forces[m:], names[m:], np.array([start])))
        a = a + np.tensordot(values, drives, 1)
        forces, drives = forces[:m], drives[:0]
    width, blocks = min(steps, _BLOCK), -(-steps // _BLOCK)
    out = np.empty((blocks * width + 1, d))     # rows past steps + 1 are scratch of the scan
    out[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        forcing = None
        if len(forces) == m:
            delta = _rk4_increment(a, a, a, e, h)
            forcing = _shift_forcing(delta, forces, start, h, width, blocks)
        if forcing is not None:
            phi, q = forcing
            work = np.empty((width, q.shape[1] + d, d))
            work[:, :-d], work[:, -d:] = q, delta[:, :d].T
            _scan(phi, work, z0, out[1:])
        else:
            grid = start + 0.5 * h * np.arange(2 * steps + 1)
            table = np.stack(tabulate(forces, names, grid), axis=1)
            for lo in range(0, steps, _CHUNK):
                hi = min(lo + _CHUNK, steps)
                rows = table[2 * lo:2 * hi + 1]
                window = a + np.tensordot(rows[:, m:], drives, 1)
                maps = _rk4_increment(window[0:-1:2], window[1::2], window[2::2], e, h)
                u3 = np.hstack((rows[0:-1:2, :m], rows[1::2, :m], rows[2::2, :m]))
                c = np.einsum("ijk,ik->ij", maps[:, :, d:], u3)
                for i in range(lo, hi):
                    out[i + 1] = out[i] + maps[i - lo, :, :d] @ out[i] + c[i - lo]
    states = out[:steps + 1]
    if not np.isfinite(states).all():
        i = int(np.argmin(np.isfinite(states).all(axis=1)))
        raise ValueError(f"RK4 state at step {i} of {steps} is beyond float range, or the "
                         f"products of the kernel's step maps left float range before it: the "
                         f"rates are too large for this step count (|f|*h^7 for a companion "
                         f"system)")
    return states
