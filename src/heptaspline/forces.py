"""Closed-form driving forces with exact derivatives of arbitrary order.

A force is a finite sum of terms ``coeff * t^m * exp(a*t) * trig(b*t + phi)``
with ``trig`` one of nothing, sine or cosine.  This family is closed under
differentiation, so high-order derivatives needed by the cascade reduction
are computed symbolically instead of numerically.  A small text grammar
(see :func:`parse`) covers CLI input:

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := number | 't' ['^' int] | 'exp' '(' arg ')'
              | ('sin'|'cos') '(' arg ['+'|'-' number] ')'
    arg    := ['-'] [number '*'] 't'

Whitespace is insignificant; numbers are decimal literals.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["ForceTerm", "ForceExpr", "ParseError", "parse"]

_TRIG_KINDS = ("none", "sin", "cos")


class ParseError(ValueError):
    """Malformed force expression; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class ForceTerm:
    """One product term ``coeff * t^poly_power * exp(exp_rate*t) * trig``."""

    coeff: float
    poly_power: int = 0
    exp_rate: float = 0.0
    trig: str = "none"
    trig_freq: float = 0.0
    trig_phase: float = 0.0

    def __post_init__(self):
        power = self.poly_power
        if not (0 <= power < math.inf and int(power) == power):
            raise ValueError(f"poly_power must be a nonnegative integer, got {power}")
        if type(power) is not int:
            object.__setattr__(self, "poly_power", int(power))   # prints t^2, not t^2.0
        if self.trig not in _TRIG_KINDS:
            raise ValueError(f"trig must be one of {_TRIG_KINDS}, got {self.trig!r}")
        if self.trig == "none" and (self.trig_freq != 0.0 or self.trig_phase != 0.0):
            raise ValueError("trig_freq and trig_phase must be 0 when trig is 'none'")

    def _key(self):
        return (self.poly_power, self.exp_rate, _TRIG_KINDS.index(self.trig),
                self.trig_freq, self.trig_phase)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        if not (self.poly_power or self.exp_rate or self.trig != "none"):
            return np.full(t.shape, self.coeff)[()]     # t's shape; a float64 for 0-d t
        v = self.coeff * np.power(t, self.poly_power) if self.poly_power else self.coeff
        if self.exp_rate:
            v = v * np.exp(self.exp_rate * t)
        if self.trig == "sin":
            v = v * np.sin(self.trig_freq * t + self.trig_phase)
        elif self.trig == "cos":
            v = v * np.cos(self.trig_freq * t + self.trig_phase)
        return v

    def derivative_terms(self) -> list["ForceTerm"]:
        """Product rule over the three factors; at most three child terms."""
        out = []
        if self.poly_power > 0:
            out.append(ForceTerm(self.coeff * self.poly_power, self.poly_power - 1,
                                 self.exp_rate, self.trig, self.trig_freq, self.trig_phase))
        if self.exp_rate != 0.0:
            out.append(ForceTerm(self.coeff * self.exp_rate, self.poly_power,
                                 self.exp_rate, self.trig, self.trig_freq, self.trig_phase))
        if self.trig == "sin":
            out.append(ForceTerm(self.coeff * self.trig_freq, self.poly_power,
                                 self.exp_rate, "cos", self.trig_freq, self.trig_phase))
        elif self.trig == "cos":
            out.append(ForceTerm(-self.coeff * self.trig_freq, self.poly_power,
                                 self.exp_rate, "sin", self.trig_freq, self.trig_phase))
        return out

    def _format(self) -> str:
        factors = []
        if self.poly_power == 1:
            factors.append("t")
        elif self.poly_power > 1:
            factors.append(f"t^{self.poly_power}")
        if self.exp_rate == 1.0:
            factors.append("exp(t)")
        elif self.exp_rate == -1.0:
            factors.append("exp(-t)")
        elif self.exp_rate != 0.0:
            factors.append(f"exp({self.exp_rate!r}*t)")
        if self.trig != "none":
            if self.trig_freq == 1.0:
                arg = "t"
            elif self.trig_freq == -1.0:
                arg = "-t"
            else:
                arg = f"{self.trig_freq!r}*t"
            if self.trig_phase > 0.0:
                arg += f" + {self.trig_phase!r}"
            elif self.trig_phase < 0.0:
                arg += f" - {-self.trig_phase!r}"
            factors.append(f"{self.trig}({arg})")
        mag = abs(self.coeff)
        if mag != 1.0 or not factors:
            factors.insert(0, repr(mag))
        return "*".join(factors)


@dataclass(frozen=True)
class ForceExpr:
    """Immutable sum of :class:`ForceTerm`; the empty sum is the zero function.

    Construction merges like terms (same powers, rate and trig data), drops
    exact-zero coefficients and sorts terms, so printing is deterministic.
    """

    terms: tuple[ForceTerm, ...] = ()

    def __post_init__(self):
        merged: dict[tuple, float] = {}
        for term in self.terms:
            key = term._key()
            merged[key] = merged.get(key, 0.0) + term.coeff
        normal = tuple(
            ForceTerm(c, k[0], k[1], _TRIG_KINDS[k[2]], k[3], k[4])
            for k, c in sorted(merged.items())
            if c != 0.0
        )
        object.__setattr__(self, "terms", normal)

    @classmethod
    def zero(cls) -> "ForceExpr":
        return cls(())

    @classmethod
    def constant(cls, value: float) -> "ForceExpr":
        return cls((ForceTerm(float(value)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, t):
        """Value at ``t`` (scalar or ndarray); scalars come back as floats.

        The sum from zero, in term order, of each term's ``ForceTerm.evaluate``.
        """
        tt = np.asarray(t, dtype=float)
        total = np.zeros(tt.shape)
        for term in self.terms:
            total = total + term.evaluate(tt)
        if tt.ndim == 0:
            return float(total)
        return total

    __call__ = evaluate

    def derivative(self, order: int = 1) -> "ForceExpr":
        """Exact symbolic derivative of the given nonnegative order."""
        if order < 0:
            raise ValueError(f"derivative order must be >= 0, got {order}")
        expr = self
        for _ in range(order):
            children: list[ForceTerm] = []
            for term in expr.terms:
                children.extend(term.derivative_terms())
            expr = ForceExpr(tuple(children))
        return expr

    def __add__(self, other: "ForceExpr") -> "ForceExpr":
        return ForceExpr(self.terms + other.terms)

    def __neg__(self) -> "ForceExpr":
        return -1.0 * self

    def __sub__(self, other: "ForceExpr") -> "ForceExpr":
        return self + (-other)

    def __mul__(self, scalar: float) -> "ForceExpr":
        return ForceExpr(tuple(
            ForceTerm(scalar * t.coeff, t.poly_power, t.exp_rate,
                      t.trig, t.trig_freq, t.trig_phase)
            for t in self.terms))

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = [self.terms[0]._format() if self.terms[0].coeff >= 0
                 else "-" + self.terms[0]._format()]
        for term in self.terms[1:]:
            parts.append(" + " if term.coeff >= 0 else " - ")
            parts.append(term._format())
        return "".join(parts)


def tabulate(force: ForceExpr, t: np.ndarray, name: str) -> np.ndarray:
    """``force`` on the grid ``t``, which must be finite everywhere on it.

    Overflow to inf (or inf * 0 = NaN) is not warned about but rejected:
    ValueError names the force by ``name`` and gives the first bad t.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = force.evaluate(t)
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"force {name}(t) = {values[i]} at t = {float(t[i])!r} "
                         f"is beyond float range")
    return values


def tabulate_grid(forces, names, start: float, step: float, count: int) -> np.ndarray:
    """Several forces on the grid ``start + step*arange(count)`` as one table.

    Returns the C-ordered (count, len(forces)) array whose column k is
    ``forces[k]``, equal to ``tabulate`` on that grid up to a few ulps of the
    terms' magnitudes.  Each distinct term shape t^p exp(r t) trig(w t + phi)
    over all the forces gets one basis row, and the table is one product of
    the basis with the forces' coefficients.  t^p and exp(r t) are computed
    once per distinct p and r, sin and cos once per distinct (w, phi) by
    angle addition (``_sin_cos``).  Where the table is not finite, the forces
    go through ``tabulate`` one by one, which names the first one not finite
    (the basis product alone can also turn a finite column into inf * 0).
    """
    t = start + step * np.arange(count)
    shapes: dict[tuple, int] = {}
    entries = []
    for k, force in enumerate(forces):
        for term in force.terms:
            entries.append((shapes.setdefault(term._key(), len(shapes)), k, term.coeff))
    weights = np.zeros((len(shapes), len(forces)))
    for row, k, coeff in entries:
        weights[row, k] = coeff
    basis = np.empty((len(shapes), count))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {p: np.power(t, p) for p, *_ in shapes if p}
        exps = {r: np.exp(r * t) for _, r, *_ in shapes if r}
        waves: dict[tuple, list] = {}
        for (p, r, trig, freq, phase), row in shapes.items():
            factors = [x for x in (powers.get(p), exps.get(r)) if x is not None]
            if trig:
                waves.setdefault((freq, phase), []).append((row, trig, factors))
            else:
                _product(basis[row], factors)
        for (freq, phase), rows in waves.items():
            sin, cos = _sin_cos(freq, phase, start, step, count)
            for row, trig, factors in rows:
                _product(basis[row], [sin if _TRIG_KINDS[trig] == "sin" else cos, *factors])
            del sin, cos
        table = basis.T @ weights
    if not np.isfinite(table).all():
        return np.stack([tabulate(force, t, name) for force, name in zip(forces, names)], axis=1)
    return table


def _product(out: np.ndarray, factors) -> None:
    """Write the product of the arrays ``factors`` (1 for none) into ``out``."""
    if len(factors) < 2:
        out[...] = factors[0] if factors else 1.0
        return
    np.multiply(factors[0], factors[1], out=out)
    for factor in factors[2:]:
        out *= factor


def _sin_cos(freq: float, phase: float, start: float, step: float, count: int):
    """sin and cos of ``freq*t + phase`` on the grid ``start + step*arange(count)``.

    The grid is cut into blocks of width ~sqrt(count): with A the angle at a
    block's start and B = freq*step*j at in-block offset j, angle addition
    gives sin(A + B) = sin A cos B + cos A sin B and cos(A + B) = cos A cos B
    - sin A sin B, so ~2 sqrt(count) libm calls and one (2*blocks, 2) @
    (2, width) product replace 2*count calls.
    """
    width = math.isqrt(max(count - 1, 0)) + 1
    blocks = -(-count // width)
    angles = freq * (start + step * (width * np.arange(blocks))) + phase
    offsets = freq * (step * np.arange(width))
    s, c = np.sin(angles), np.cos(angles)
    left = np.array([[s, c], [c, -s]]).swapaxes(1, 2).reshape(2 * blocks, 2)
    values = (left @ np.array([np.cos(offsets), np.sin(offsets)])).reshape(2, blocks * width)
    return values[0, :count], values[1, :count]


# --- parser -------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(0), pos))
            pos = m.end()
            continue
        if text[pos].isalpha():
            end = pos
            while end < len(text) and text[end].isalpha():
                end += 1
            tokens.append(("name", text[pos:end], pos))
            pos = end
            continue
        if text[pos] in "+-*^()":
            tokens.append(("op", text[pos], pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        return self.advance()

    def parse_expr(self) -> ForceExpr:
        sign = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            sign = -1.0 if val == "-" else 1.0
        terms = [(self.peek()[2], self.parse_term(sign))]
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                terms.append((self.peek()[2], self.parse_term(-1.0 if val == "-" else 1.0)))
            elif kind == "end":
                break
            else:
                raise ParseError(f"expected '+', '-' or end of input, got {val!r}", pos)
        expr = ForceExpr.zero()
        for start, t in terms:
            expr = expr + ForceExpr((t,))
            # merging like terms can overflow where no single term does
            if not all(math.isfinite(merged.coeff) for merged in expr.terms):
                raise ParseError("sum of like terms is out of float range", start)
        return expr

    def parse_term(self, sign: float) -> ForceTerm:
        coeff = sign
        power = 0
        rate = 0.0
        trig = "none"
        freq = 0.0
        phase = 0.0
        start = self.peek()[2]
        while True:
            kind, val, pos = self.peek()
            if kind == "num":
                self.advance()
                coeff *= float(val)
            elif kind == "name" and val == "t":
                self.advance()
                k2, v2, _ = self.peek()
                if k2 == "op" and v2 == "^":
                    self.advance()
                    knum, vnum, pnum = self.peek()
                    if knum != "num" or not vnum.isdigit():
                        raise ParseError("expected integer exponent after '^'", pnum)
                    self.advance()
                    power += int(vnum)
                else:
                    power += 1
            elif kind == "name" and val in ("exp", "sin", "cos"):
                self.advance()
                a, b = self.parse_func_arg(val, pos)
                if val == "exp":
                    rate += a
                else:
                    if trig != "none":
                        raise ParseError("more than one sin/cos factor in a term", pos)
                    trig, freq, phase = val, a, b
            elif kind == "name":
                raise ParseError(f"unknown function {val!r}", pos)
            else:
                raise ParseError(f"expected a factor, got {val!r}", pos)
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                continue
            break
        if not all(map(math.isfinite, (coeff, rate, freq, phase))):
            raise ParseError("term is out of float range", start)
        return ForceTerm(coeff, power, rate, trig, freq, phase)

    def parse_func_arg(self, func: str, fpos: int) -> tuple[float, float]:
        """Argument ``[-][number *] t [(+|-) number]``; returns (slope, offset)."""
        self.expect_op("(")
        slope = 1.0
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            slope = -1.0
        kind, val, pos = self.peek()
        if kind == "num":
            self.advance()
            slope *= float(val)
            self.expect_op("*")
        kind, val, pos = self.peek()
        if kind != "name" or val != "t":
            raise ParseError(f"expected 't' in {func}() argument", pos)
        self.advance()
        offset = 0.0
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            if func == "exp":
                raise ParseError("exp() argument cannot carry a phase offset", pos)
            osign = -1.0 if val == "-" else 1.0
            self.advance()
            knum, vnum, pnum = self.peek()
            if knum != "num":
                raise ParseError("expected number after phase sign", pnum)
            self.advance()
            offset = osign * float(vnum)
        self.expect_op(")")
        return slope, offset


def parse(text: str) -> ForceExpr:
    """Parse a force expression; see the module docstring for the grammar.

    Raises :class:`ParseError` (with ``position``) on malformed input and
    on unknown function names.  The literal "0" yields the zero expression.
    """
    return _Parser(text).parse_expr()
