"""The affine RK4 kernel that both Runge-Kutta oracles run on.

``_rk4_linear`` integrates a linear system ``z' = A(t) z + E u(t)`` given as
data: ``cascade.simulate_direct`` hands it the coupled scales and
``oracle.rk_solve`` the companion system.  For a constant A it builds the
forcing from shifts of the forces' basis (``ShiftBasis``) and solves the
steps by a blocked scan; otherwise it steps one map at a time on the forces'
table.  Those two functions import this module when they run, and the
package namespace loads it with the rest of the library; a CLI spline solve
never loads it.
"""

from __future__ import annotations

import math

import numpy as np

from .forces import tabulate


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
    every force value the kernel reads.  ValueError where ``steps`` is not an
    integer >= 1.

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
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"steps must be an integer, got {steps!r}")
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


# --- shifts of the force basis -------------------------------------------

class ShiftBasis:
    """A basis phi of functions that holds some forces and is closed under shifts.

    A term ``c t^p exp(r t) trig(w t + theta)`` lies in the span of the
    functions t^q exp(r t) sin(w t + theta) and t^q exp(r t) cos(w t + theta),
    q <= p (t^q exp(r t) for a term without trig), and t -> t + tau maps that
    span to itself:

        (t + tau)^q = sum_{i<=q} C(q, i) tau^(q-i) t^i,   exp(r (t + tau)) = exp(r tau) exp(r t),
        sin(x + w tau) = cos(w tau) sin x + sin(w tau) cos x,
        cos(x + w tau) = cos(w tau) cos x - sin(w tau) sin x,

    so phi(t + tau) = T_tau phi(t) with T_tau in closed form (``shifted``).
    Basis function i is the shape with key ``keys[i]`` (``ForceTerm._key``),
    power ``powers[i]`` and rate ``rates[i]``, and force k is
    ``phi(t) @ weights[:, k]``.
    """

    def __init__(self, forces):
        """The basis of ``forces``.  ValueError where its ``lift_size`` exceeds
        ``_SHIFT_BUDGET``: that size comes from the groups alone, before anything
        per power is listed."""
        top: dict[tuple, int] = {}          # (rate, has trig, freq, phase) -> highest power
        for term in (x for force in forces for x in force.terms):
            power, rate, trig, freq, phase = term._key
            group = (rate, trig > 0, freq, phase)
            top[group] = max(top.get(group, 0), power)
        size = [(power + 1) * (1 + has_trig) for (_, has_trig, _, _), power in top.items()]
        highest = max(top.values(), default=0)
        #: Entries of each (p + 1, n, n) array that ``shifted`` forms, p the highest power.
        self.lift_size = (highest + 1) * sum(size) ** 2
        if self.lift_size > _SHIFT_BUDGET:
            raise ValueError(f"shift arrays of {self.lift_size} entries exceed {_SHIFT_BUDGET}")
        self.keys = [(q, rate, trig, freq, phase)
                     for (rate, has_trig, freq, phase), power in top.items()
                     for q in range(power + 1) for trig in ((1, 2) if has_trig else (0,))]
        row = {key: i for i, key in enumerate(self.keys)}
        self.weights = np.zeros((len(row), len(forces)))
        for k, force in enumerate(forces):
            for term in force.terms:
                self.weights[row[term._key], k] = term.coeff
        # exp(r t) and the wave are computed once per group; a group without trig has
        # w = theta = 0, so its cos is exactly 1
        self._group = np.repeat(np.arange(len(top)), size)
        self._rate, _, self._freq, self._phase = np.array(list(top), dtype=float).reshape(-1, 4).T
        self.powers, self._trig = np.array([key[:3:2] for key in self.keys],
                                           dtype=int).reshape(-1, 2).T
        self.rates = self._rate[self._group]
        self._wave = self._group + len(top) * (self._trig != 1)     # into [sin, cos]
        self._exponents = np.arange(highest + 1)

    def values(self, t) -> np.ndarray:
        """phi at each point of the 1-d ``t``, shape (len(t), len(keys))."""
        t = np.asarray(t, dtype=float)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            angle = self._freq * t + self._phase
            waves = np.concatenate((np.sin(angle), np.cos(angle)), axis=1) * np.tile(
                np.exp(self._rate * t), 2)
            return np.power(t, self._exponents)[:, self.powers] * waves[:, self._wave]

    def shifted(self, taus, weights) -> np.ndarray:
        """T_tau^T @ ``weights`` for each tau of the 1-d ``taus``, shape (len(taus), n, k)
        for n basis functions and k columns of ``weights``: the weights on phi(t) of the
        functions whose weights on phi(t + tau) are ``weights``.  With the identity
        for ``weights`` this is the transposed stack of the T_tau."""
        # T_tau[i, j] = sum_e tau^e (cos_j C_e[i, j] + sin_j S_e[i, j]), with cos_j and sin_j
        # exp(r tau) cos(w tau) and exp(r tau) sin(w tau) for j's group; C_e and S_e hold
        # C(q_i, q_j) (S_e with the sign of the rotation) where j is in i's group, q_i - q_j = e
        power, trig, group = self.powers, self._trig, self._group
        pascal = np.array([[math.comb(i, j) for j in self._exponents] for i in self._exponents],
                          dtype=float)
        lift = ((group[:, None] == group) * pascal[power[:, None], power]
                * (power[:, None] - power == self._exponents[:, None, None]))
        taus = np.asarray(taus, dtype=float)[:, None]
        n, k = weights.shape
        with np.errstate(over="ignore", invalid="ignore"):
            growth, angle = np.exp(self._rate * taus), self._freq * taus
            parts = [(np.power(taus, self._exponents)
                      @ ((lift * rotation[trig[:, None], trig]).swapaxes(1, 2) @ weights)
                      .reshape(len(lift), n * k)).reshape(len(taus), n, k)
                     for rotation in (_SHIFT_COS, _SHIFT_SIN)]
            return ((growth * np.cos(angle))[:, group, None] * parts[0]
                    + (growth * np.sin(angle))[:, group, None] * parts[1])


#: Most entries of each (p + 1, n, n) array ``ShiftBasis.shifted`` forms (``lift_size``);
#: the oracle's cascades need at most 4 096.
_SHIFT_BUDGET = 1 << 16

#: The rotation part of T_tau by trig index (none, sin, cos) of row and column:
#: cos(w tau) on the diagonal, +-sin(w tau) between sin and cos of one wave.
_SHIFT_COS = np.eye(3)
_SHIFT_SIN = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
