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

Whitespace is insignificant; numbers are decimal literals in the ASCII
digits 0-9.  The family is also closed under the shift t -> t + tau, which
:class:`ShiftBasis` writes as one matrix per tau.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

__all__ = ["ForceTerm", "ForceExpr", "ParseError", "parse"]

_TRIG_KINDS = ("none", "sin", "cos")


class ParseError(ValueError):
    """Malformed force expression; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _shape_key(term) -> tuple:
    """A term's ``_key``, (power, rate, trig index, freq, phase): like terms share it."""
    return (term.poly_power, term.exp_rate, _TRIG_KINDS.index(term.trig),
            term.trig_freq, term.trig_phase)


@dataclass(frozen=True)
class ForceTerm:
    """One product term ``coeff * t^poly_power * exp(exp_rate*t) * trig``,
    its power stored as an int and its other numbers as Python floats."""

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
        for name in ("coeff", "exp_rate", "trig_freq", "trig_phase"):
            object.__setattr__(self, name, float(getattr(self, name)))  # 2.0, not np.float64(2.0)
        if self.trig not in _TRIG_KINDS:
            raise ValueError(f"trig must be one of {_TRIG_KINDS}, got {self.trig!r}")
        if self.trig == "none" and (self.trig_freq != 0.0 or self.trig_phase != 0.0):
            raise ValueError("trig_freq and trig_phase must be 0 when trig is 'none'")
        object.__setattr__(self, "_key", _shape_key(self))

    def _derived(self, coeff: float, **shape) -> "ForceTerm":
        """This term with ``coeff`` and ``shape`` fields that keep it valid, unchecked;
        its ``_key`` is recomputed only when ``shape`` changes a field."""
        term = object.__new__(ForceTerm)
        term.__dict__.update(self.__dict__, coeff=float(coeff), **shape)
        if shape:
            term.__dict__["_key"] = _shape_key(term)
        return term

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
            out.append(self._derived(self.coeff * self.poly_power, poly_power=self.poly_power - 1))
        if self.exp_rate != 0.0:
            out.append(self._derived(self.coeff * self.exp_rate))
        if self.trig == "sin":
            out.append(self._derived(self.coeff * self.trig_freq, trig="cos"))
        elif self.trig == "cos":
            out.append(self._derived(-self.coeff * self.trig_freq, trig="sin"))
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
    A term with no like term is kept as the same object.
    """

    terms: tuple[ForceTerm, ...] = ()

    def __post_init__(self):
        merged: dict[tuple, ForceTerm] = {}
        for term in self.terms:
            key = term._key
            first = merged.get(key)
            merged[key] = term if first is None else first._derived(first.coeff + term.coeff)
        object.__setattr__(self, "terms", tuple(
            merged[key] for key in sorted(merged) if merged[key].coeff != 0.0))

    @classmethod
    def zero(cls) -> "ForceExpr":
        return cls(())

    @classmethod
    def constant(cls, value: float) -> "ForceExpr":
        return cls((ForceTerm(value),))

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
        return ForceExpr(tuple(t._derived(scalar * t.coeff) for t in self.terms))

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


def tabulate(forces, names, t: np.ndarray) -> list[np.ndarray]:
    """Each of ``forces`` on the grid ``t``, which must be finite everywhere on it.

    Overflow to inf (or inf * 0 = NaN) is not warned about but rejected:
    ValueError names the first force not finite by its entry in ``names``
    and gives its first bad t.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [force.evaluate(t) for force in forces]
    for values, name in zip(tables, names):
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"force {name}(t) = {values[i]} at t = {float(t[i])!r} "
                             f"is beyond float range")
    return tables


def tabulate_at(forces, names, t: float) -> list[float]:
    """Each force at ``t``, ``tabulate(forces, names, np.array([t]))`` bit for bit, from one
    pass over all terms: ``ForceTerm.evaluate``'s ufuncs in its order (an absent factor is an
    exact 1.0), each force's terms added from 0.0 in term order (``sum`` compensates on 3.12,
    ``np.add.reduce`` is pairwise).
    """
    t = float(t)
    terms = [term for force in forces for term in force.terms]
    with np.errstate(over="ignore", invalid="ignore"):
        powers = {p: np.power(np.array([t]), p)[0] for p in {x.poly_power for x in terms}}
        coeff, power, rate, freq, phase, trig = np.array(
            [(x.coeff, powers[x.poly_power], x.exp_rate, x.trig_freq, x.trig_phase,
              _TRIG_KINDS.index(x.trig)) for x in terms]).reshape(-1, 6).T
        angle = freq * t + phase
        wave = np.choose(trig.astype(int), (1.0, np.sin(angle), np.cos(angle)))
        values = iter((coeff * power * np.exp(rate * t) * wave).tolist())
    out = []
    for force, name in zip(forces, names):
        total = 0.0
        for _ in force.terms:
            total += next(values)
        if not math.isfinite(total):
            raise ValueError(f"force {name}(t) = {total} at t = {t!r} is beyond float range")
        out.append(total)
    return out


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


# --- parser -------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` tokens, kind one of "op", "name", "num", "end"."""
    tokens = []
    pos, size = 0, len(text)
    while pos < size:
        char, end = text[pos], pos + 1
        if char.isspace():
            pos = end
            continue
        if char in "+-*^()":
            kind = "op"
        elif char.isalpha():
            kind = "name"
            while end < size and text[end].isalpha():
                end += 1
        elif m := _NUMBER_RE.match(text, pos):
            kind, end = "num", m.end()
        else:
            raise ParseError(f"unexpected character {char!r}", pos)
        tokens.append((kind, text[pos:end], pos))
        pos = end
    tokens.append(("end", "", size))
    return tokens


class _Parser:
    """Recursive descent over the tokens; ``take`` is the one way to consume one."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def pos(self) -> int:
        """Position of the current token."""
        return self.tokens[self.i][2]

    def take(self, kind: str, values=None):
        """Consume the current token and return its text if it is a ``kind``
        (with one of the texts ``values``); else None.  Only "end" has text ""."""
        token_kind, text, _ = self.tokens[self.i]
        if token_kind != kind or (values is not None and text not in values):
            return None
        self.i += 1
        return text

    def fail(self, message: str, pos=None) -> NoReturn:
        """Raise ParseError at ``pos``, by default the current token's."""
        raise ParseError(message, self.pos if pos is None else pos)

    def parse_expr(self) -> ForceExpr:
        # the optional leading sign and each sign between terms, read by one loop
        terms, sign = [], self.take("op", "+-")
        while sign or not terms:
            terms.append((self.pos, self.parse_term(-1.0 if sign == "-" else 1.0)))
            sign = self.take("op", "+-")
        if self.take("end") is None:
            self.fail(f"expected '+', '-' or end of input, got {self.tokens[self.i][1]!r}")
        # like-term sums, folded as ForceExpr folds them, can overflow where no term does
        sums: dict[tuple, float] = {}
        for start, t in terms:
            key = t._key
            sums[key] = sums.get(key, 0.0) + t.coeff
            if not math.isfinite(sums[key]):
                self.fail("sum of like terms is out of float range", start)
        return ForceExpr(tuple(t for _, t in terms))

    def parse_term(self, sign: float) -> ForceTerm:
        coeff, power, rate, trig, freq, phase = sign, 0, 0.0, "none", 0.0, 0.0
        start = self.pos
        while True:
            pos = self.pos
            if num := self.take("num"):
                coeff *= float(num)
            elif self.take("name", ("t",)):
                if self.take("op", "^"):
                    pos = self.pos
                    digits = self.take("num") or ""
                    if not digits.isdigit():
                        self.fail("expected integer exponent after '^'", pos)
                    try:
                        power += int(digits)
                    except ValueError:      # beyond the interpreter's int digit limit
                        raise ParseError("exponent has too many digits", pos) from None
                else:
                    power += 1
            elif func := self.take("name", ("exp", "sin", "cos")):
                a, b = self.parse_func_arg(func)
                if func == "exp":
                    rate += a
                elif trig != "none":
                    self.fail("more than one sin/cos factor in a term", pos)
                else:
                    trig, freq, phase = func, a, b
            elif name := self.take("name"):
                self.fail(f"unknown function {name!r}", pos)
            else:
                self.fail(f"expected a factor, got {self.tokens[self.i][1]!r}")
            if not self.take("op", "*"):
                break
        if not all(map(math.isfinite, (coeff, rate, freq, phase))):
            self.fail("term is out of float range", start)
        return ForceTerm(coeff, power, rate, trig, freq, phase)

    def parse_func_arg(self, func: str) -> tuple[float, float]:
        """Argument ``[-][number *] t [(+|-) number]``; returns (slope, offset)."""
        self.take("op", "(") or self.fail("expected '('")
        slope = -1.0 if self.take("op", "-") else 1.0
        if num := self.take("num"):
            slope *= float(num)
            self.take("op", "*") or self.fail("expected '*'")
        self.take("name", ("t",)) or self.fail(f"expected 't' in {func}() argument")
        offset, pos = 0.0, self.pos
        if sign := self.take("op", "+-"):
            if func == "exp":
                self.fail("exp() argument cannot carry a phase offset", pos)
            num = self.take("num") or self.fail("expected number after phase sign")
            offset = (-1.0 if sign == "-" else 1.0) * float(num)
        self.take("op", ")") or self.fail("expected ')'")
        return slope, offset


def parse(text: str) -> ForceExpr:
    """Parse a force expression; see the module docstring for the grammar.

    Raises :class:`ParseError` (with ``position``) on malformed input and
    on unknown function names.  The literal "0" yields the zero expression.
    """
    return _Parser(text).parse_expr()
