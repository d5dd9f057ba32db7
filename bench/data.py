"""Benchmark data shared by the workloads: published cells, ceilings, generators.

Importing this module does not import heptaspline, so the ``cli`` workload's
parent process stays free of the package it measures.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

PROBLEMS = ("oscillating", "exponential", "pure-forcing")   # order of oracle.BENCHMARKS
MODES = ("standard", "improved")
MIN_KNOTS = {"standard": 9, "improved": 10}

#: Largest n any workload solves.  Above it float64 answers are roundoff
#: garbage that lu_solve still accepts (see README.md).
N_MAX = 96

#: The three published parameter columns (alpha, beta, gamma, delta).
COLUMNS = {
    "col1": (Fraction(1, 2), Fraction(19, 2), Fraction(49, 2), Fraction(51, 2)),
    "col2": (Fraction(0), Fraction(0), Fraction(0), Fraction(60)),
    "col3": (Fraction(10), Fraction(10), Fraction(10), Fraction(30)),
}

#: delta values the sweep draws for optimal_family(delta); the committed
#: ceilings cover every one of them.
DELTAS = tuple(Fraction(k, 2) for k in range(0, 121))

#: (problem, mode, column, n) -> published max-abs error.  "opt30" is
#: optimal_family(30); improved-mode n=10 rows are pre-asymptotic in print
#: and left out, as in the acceptance suite.
PUBLISHED = {
    ("oscillating", "standard", "col1", 12): 2.88e-1,
    ("oscillating", "standard", "col1", 24): 3.09e-2,
    ("oscillating", "standard", "col1", 48): 2.5e-3,
    ("oscillating", "standard", "col1", 96): 1.70e-4,
    ("oscillating", "standard", "col2", 12): 3.04e-1,
    ("oscillating", "standard", "col2", 24): 3.56e-2,
    ("oscillating", "standard", "col2", 48): 3.9e-3,
    ("oscillating", "standard", "col2", 96): 7.37e-4,
    ("oscillating", "standard", "col3", 12): 2.76e-1,
    ("oscillating", "standard", "col3", 24): 2.73e-2,
    ("oscillating", "standard", "col3", 48): 1.4e-3,
    ("oscillating", "standard", "col3", 96): 3.19e-4,
    ("exponential", "standard", "col1", 10): 1.5e-3,
    ("exponential", "standard", "col1", 20): 1.75e-4,
    ("exponential", "standard", "col1", 40): 1.81e-5,
    ("exponential", "standard", "col2", 10): 1.6e-3,
    ("exponential", "standard", "col2", 20): 1.94e-4,
    ("exponential", "standard", "col2", 40): 2.62e-5,
    ("exponential", "standard", "col3", 10): 1.5e-3,
    ("exponential", "standard", "col3", 20): 1.60e-4,
    ("exponential", "standard", "col3", 40): 1.32e-5,
    ("pure-forcing", "standard", "col1", 9): 2.0e-3,
    ("pure-forcing", "standard", "col1", 18): 2.26e-4,
    ("pure-forcing", "standard", "col1", 36): 2.16e-5,
    ("pure-forcing", "standard", "col2", 9): 2.22e-3,
    ("pure-forcing", "standard", "col2", 18): 2.66e-4,
    ("pure-forcing", "standard", "col2", 36): 3.46e-5,
    ("pure-forcing", "standard", "col3", 9): 1.5e-3,
    ("pure-forcing", "standard", "col3", 18): 1.60e-4,
    ("pure-forcing", "standard", "col3", 36): 1.32e-5,
    ("oscillating", "improved", "opt30", 20): 2.08e-6,
    ("oscillating", "improved", "opt30", 40): 7.50e-7,
    ("exponential", "improved", "opt30", 12): 2.15e-8,
    ("exponential", "improved", "opt30", 15): 3.65e-9,
    ("pure-forcing", "improved", "opt30", 12): 2.33e-8,
    ("pure-forcing", "improved", "opt30", 15): 1.67e-8,
}

#: A published cell passes when the computed error is within this factor.
PUBLISHED_FACTOR = 10.0

#: Direct-vs-reduced agreement required of every verify cascade (criterion 6).
CASCADE_AGREEMENT = 1e-6

#: Ceiling on spline-vs-RK error for verify cascades (improved, opt30, n=20).
#: Over 500 generated cascades the largest error at the seed commit was
#: 4.9e-8, and the largest direct-vs-reduced disagreement 2.7e-14.
VERIFY_ERROR_CEILING = 1e-6

CEILINGS_PATH = BENCH_DIR / "ceilings.json"


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def published_ok(error: float, published: float) -> bool:
    ratio = error / published
    return 1.0 / PUBLISHED_FACTOR <= ratio <= PUBLISHED_FACTOR


def ceiling_kind(column: str) -> str:
    """Ceilings group every optimal_family(delta) solve under one kind."""
    return "opt" if column.startswith("opt") else column


def load_ceilings() -> dict:
    """(problem, mode, kind) -> {n: ceiling} from the committed ceilings.json."""
    raw = json.loads(CEILINGS_PATH.read_text())
    table = {}
    for key, entry in raw["ceilings"].items():
        problem, mode, kind = key.split("/")
        table[(problem, mode, kind)] = {
            entry["n_min"] + i: value for i, value in enumerate(entry["ceiling"])}
    return table


def _number(x: float) -> str:
    return f"{abs(x):.6f}"


def _force_text(rng: random.Random) -> str:
    """0-2 random terms, drawn like acceptance criterion 6, as parser input."""
    parts = []
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(["poly", "sin", "cos"])
        coeff = rng.uniform(-1, 1)
        if kind == "poly":
            power = rng.randint(0, 3)
            factors = [_number(coeff)] + ([f"t^{power}"] if power else [])
        else:
            power = rng.randint(0, 1)
            freq, phase = rng.uniform(-2, 2), rng.uniform(-1, 1)
            sign = "-" if freq < 0 else ""
            offset = f" {'-' if phase < 0 else '+'} {_number(phase)}"
            factors = [_number(coeff)] + (["t"] if power else [])
            factors.append(f"{kind}({sign}{_number(freq)}*t{offset})")
        parts.append(("-" if coeff < 0 else "+", "*".join(factors)))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def cascade_spec(rng: random.Random) -> dict:
    """A random 7-scale cascade on [0, 1] as text forces and numbers."""
    return {
        "gamma": rng.choice([0.5, 1.0, 2.0]),
        "forces": [_force_text(rng) for _ in range(7)],
        "velocities": [round(rng.uniform(-1, 1), 6) for _ in range(7)],
    }
