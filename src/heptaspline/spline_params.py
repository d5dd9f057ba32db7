"""Spline weights (alpha, beta, gamma, delta) and truncation-error coefficients.

The four weights multiply the h^7 derivative terms of the consistency
stencil and must satisfy alpha + beta + gamma + delta = 60.  They can be
given directly, produced from the one-parameter optimal family (which
annihilates the h^9..h^12 truncation terms), or evaluated from the
trigonometric closed forms in theta = omega*h.

One exact row residual on monomials, ``_residual``, yields the truncation
coefficients c7..c12 and derives and checks the end rows of ``assembly``.

Weights are kept as exact rationals when constructed from rationals, so the
vanishing-coefficient identities can be tested exactly; they are reduced to
floats only when a linear system is assembled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

__all__ = [
    "SplineParams",
    "TruncationCoeffs",
    "validate",
    "optimal_family",
    "from_theta",
    "truncation_coeffs",
]

Scalar = Union[int, float, Fraction]

_SUM_TOLERANCE = 1e-9

#: Weight types whose sum ``SplineParams.total`` forms over one denominator.
_EXACT_TYPES = frozenset((int, Fraction))

#: Smallest |theta| that ``from_theta`` accepts.  Its closed forms cancel
#: terms of size ~1/theta^6.  Against a 60-digit evaluation the worst
#: relative error of the float weights is 7.6e-7 on [0.2, 3.1]; it passes
#: 1e-6 just below 0.2 and reaches 2.2e-4 at 0.1 and ~6e3 at 0.01.
_THETA_MIN = 0.2

_WEIGHT_NAMES = ("alpha", "beta", "gamma", "delta")

#: y-side of the interior stencil: 120 times the binomial weights of the
#: seventh forward difference over knots i-7..i.
INTERIOR_Y_WEIGHTS = tuple(120 * (-1) ** (7 - j) * math.comb(7, j) for j in range(8))


@dataclass(frozen=True)
class SplineParams:
    """Weights of the consistency stencil, constrained to sum to 60."""

    alpha: Scalar
    beta: Scalar
    gamma: Scalar
    delta: Scalar

    @property
    def total(self) -> Scalar:
        """alpha + beta + gamma + delta; exact, over one common denominator,
        for int and Fraction weights (a Fraction if any weight is one)."""
        weights = (self.alpha, self.beta, self.gamma, self.delta)
        types = set(map(type, weights))
        if Fraction in types and types <= _EXACT_TYPES:
            dens = [w.denominator for w in weights]
            den = math.lcm(*dens)
            return Fraction(sum([w.numerator * (den // d) for w, d in zip(weights, dens)]), den)
        return self.alpha + self.beta + self.gamma + self.delta

    def as_floats(self) -> tuple[float, float, float, float]:
        """The weights as floats; ValueError names one beyond float range."""
        return self._floats

    # The instance is frozen, so its floats and its validation verdict are
    # worked out once and kept on it.
    @cached_property
    def _floats(self) -> tuple[float, float, float, float]:
        floats = []
        for name in _WEIGHT_NAMES:
            try:
                floats.append(float(getattr(self, name)))
            except OverflowError:       # an exact rational that no float holds
                raise ValueError(f"{name} is beyond float range") from None
        return tuple(floats)

    @cached_property
    def _violation(self) -> Optional[str]:
        """Why :func:`validate` rejects these weights, or None."""
        try:
            floats = self._floats
        except ValueError as exc:
            return str(exc)
        for name, value in zip(_WEIGHT_NAMES, floats):
            if not math.isfinite(value):
                return f"{name} is not finite: {value}"
        total = self.total
        if total != 60 and abs(total - 60) > _SUM_TOLERANCE:
            return f"spline parameters must satisfy alpha+beta+gamma+delta=60, got sum={total}"
        return None


@dataclass(frozen=True)
class TruncationCoeffs:
    """Coefficients of h^m y^(m) in the interior local truncation error."""

    c7: Scalar
    c8: Scalar
    c9: Scalar
    c10: Scalar
    c11: Scalar
    c12: Scalar


def validate(params: SplineParams) -> SplineParams:
    """Return ``params`` if the sum-60 constraint holds within 1e-9.

    The check runs once per instance; an invalid instance raises on every call.
    """
    violation = params._violation
    if violation is not None:
        raise ValueError(violation)
    return params


def optimal_family(delta: Scalar) -> SplineParams:
    """Parameter set annihilating the h^9..h^12 truncation coefficients.

    alpha = 151/15 - delta/5, beta = -301/6 + delta, gamma = 1001/10 - 9*delta/5.
    Computed in exact rational arithmetic, as integer numerators over 30*q for
    delta = p/q; the sum is exactly 60 for any delta (floats are converted to
    the dyadic rationals they represent).  A delta that is not a finite
    rational (inf, NaN, "1/0") raises ValueError.
    """
    try:
        d = Fraction(delta)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ValueError(f"delta must be a finite rational number, got {delta!r}") from None
    p, q = d.numerator, d.denominator
    return SplineParams(
        alpha=Fraction(302 * q - 6 * p, 30 * q),
        beta=Fraction(30 * p - 1505 * q, 30 * q),
        gamma=Fraction(3003 * q - 54 * p, 30 * q),
        delta=d,
    )


def from_theta(theta: float) -> SplineParams:
    """Evaluate the trigonometric closed forms of the four weights.

    ``theta`` = omega*h must stay away from multiples of pi (sin theta = 0).
    The weights make the interior row exact on sin(omega*t) and
    cos(omega*t), and tend to the Eulerian weights (1, 247, 4293, 15619)/336
    of the polynomial stencil as theta -> 0.  Their sum is 60 + O(theta^2),
    so they fail the sum-60 constraint and serve for inspection (``coeffs
    --theta``) rather than for solving.  In floats the closed forms cancel
    terms of size ~1/theta^6, so |theta| below 0.2, where the weights would
    be off by more than 1e-6 relative, is rejected with ValueError, as is a
    theta whose seventh power is beyond float range.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if abs(theta) < _THETA_MIN:
        raise ValueError(f"|theta| = {abs(theta)} is below {_THETA_MIN}: the closed forms cancel "
                         f"terms of size ~1/theta^6 and would lose more than 1e-6 of each weight "
                         f"in floats")
    if abs(math.sin(theta)) <= 1e-12:
        raise ValueError(f"theta={theta} is too close to a multiple of pi (sin theta = 0)")
    try:
        weights = _theta_weights(theta, math.sin, math.cos)
    except OverflowError:       # theta**7 in floats
        raise ValueError(f"theta must be finite with theta^7 in float range, got {theta}") from None
    return SplineParams(*weights)


def _theta_weights(theta, sin, cos):
    """(alpha, beta, gamma, delta) at ``theta`` in the arithmetic of ``sin`` and
    ``cos``: floats for ``math``, any precision for mpmath."""
    s, c = sin(theta), cos(theta)
    t3, t5, t7 = theta**3, theta**5, theta**7
    alpha = (120 * (c - 1) / (t7 * s) + 60 / (t5 * s)
             - 5 / (t3 * s) + 1 / (6 * theta * s))
    beta = (600 * (1 - c) / (t7 * s) - 60 * (2 * c + 3) / (t5 * s)
            + 5 * (2 * c - 9) / (t3 * s) - (2 * c - 57) / (6 * theta * s))
    gamma = (1080 * (c - 1) / (t7 * s) + 180 * (2 * c + 1) / (t5 * s)
             + 45 * (2 * c + 1) / (t3 * s) - (38 * c - 101) / (2 * theta * s))
    delta = (600 * (1 - c) / (t7 * s) - 60 * (4 * c + 1) / (t5 * s)
             - 5 * (20 * c - 1) / (t3 * s) - (604 * c - 359) / (6 * theta * s))
    return alpha, beta, gamma, delta


def _monomial_derivative(degree: int, order: int, t: int | Fraction) -> int | Fraction:
    """order-th derivative of t^degree at ``t``, exact and of the type of ``t``."""
    return math.perm(degree, order) * t ** (degree - order) if order <= degree else 0 * t


def _residual(u_terms, y_terms, init_terms, degree: int, at: int = 0):
    """Exact residual of one row on y = (t - at)^degree, at h = 1 with knot j at t = j.

    The row sum(c * U_j) = sum(q * y_j) + sum(b * u_m) has U = y^(7) and
    u_m = y^(m)(0); the result, U side minus the others, is linear in the
    weights and exact for int and Fraction ones.
    """
    return (sum(c * _monomial_derivative(degree, 7, j - at) for j, c in u_terms)
            - sum(q * _monomial_derivative(degree, 0, j - at) for j, q in y_terms)
            - sum(b * _monomial_derivative(degree, m, -at) for m, b in init_terms))


def truncation_coeffs(params: SplineParams) -> TruncationCoeffs:
    """Interior truncation coefficients c7..c12: the interior row over knots
    0..7, expanded about knot 3, is sum(c_m h^m y^(m)), so c_m is its residual
    on (t - 3)^m at h = 1 over m!.

    A Fraction for int or Fraction weights, a float for float ones.  c7 and
    c8 are multiples of (sum - 60) and vanish for every validated parameter
    set; c9..c12 vanish identically on the optimal family.
    """
    half = (params.alpha, params.beta, params.gamma, params.delta)
    stencil = tuple(enumerate(half + half[::-1]))
    knots = tuple(enumerate(INTERIOR_Y_WEIGHTS))
    return TruncationCoeffs(*(_residual(stencil, knots, (), m, at=3) / Fraction(math.factorial(m))
                              for m in range(7, 13)))
