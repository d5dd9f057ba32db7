"""Span tracing around heptaspline's public functions, for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each traced function with a wrapper wherever the package binds it:
the defining module, every ``from .x import y`` re-binding in another
``heptaspline`` module, and the package namespace.  :meth:`Tracer.uninstall`
puts the originals back, so untraced timing runs no wrapper code.

Each call records a span ``(op, name, start_ns, end_ns, parent)`` in memory.
A span's self time is its duration minus the durations of its direct child
spans.  Counts (points, steps, flops, bytes) are computed from the call's
arguments and result, never timed, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Acceptance bound of linsolve.lu_solve: residual <= 1e-8 * ||A||_inf * ||y||_inf.
_RESIDUAL_RTOL = 1e-8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_evaluate(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _count_build(args, kwargs, result):
    n = int(_arg(args, kwargs, 3, "n"))
    return {"matrix_bytes": 8 * n * n}


def _count_lu_solve(args, kwargs, result):
    n = _arg(args, kwargs, 0, "system").matrix.shape[0]
    # LU 2n^3/3, two triangular solves 2n^2, residual A y - b 2n^2, row-sum norm n^2
    counts = {"flops": (2 * n**3) // 3 + 5 * n * n}
    if result is not None:
        matrix = _arg(args, kwargs, 0, "system").matrix
        anorm = float(np.max(np.sum(np.abs(matrix), axis=1)))
        ynorm = float(np.max(np.abs(result.y[1:]))) if result.y.size > 1 else 0.0
        bound = _RESIDUAL_RTOL * anorm * max(ynorm, np.finfo(float).tiny)
        counts["residual_ratio_max"] = result.residual_inf / bound
    return counts


def _count_steps(args, kwargs, result):
    return {"steps": int(_arg(args, kwargs, 1, "steps"))}


#: (module, attribute path, span name, counter).  The span name is the layer
#: the per-layer metrics are reported under; spline_params functions share one.
TARGETS = (
    ("heptaspline.forces", "parse", "forces.parse", None),
    ("heptaspline.forces", "ForceExpr.evaluate", "forces.evaluate", _count_evaluate),
    ("heptaspline.forces", "ForceExpr.derivative", "forces.derivative", None),
    ("heptaspline.spline_params", "validate", "spline_params", None),
    ("heptaspline.spline_params", "optimal_family", "spline_params", None),
    ("heptaspline.spline_params", "from_theta", "spline_params", None),
    ("heptaspline.spline_params", "truncation_coeffs", "spline_params", None),
    ("heptaspline.assembly", "build", "assembly.build", _count_build),
    ("heptaspline.linsolve", "lu_solve", "linsolve.lu_solve", _count_lu_solve),
    ("heptaspline.oracle", "rk_solve", "oracle.rk_solve", _count_steps),
    ("heptaspline.oracle", "max_abs_error", "oracle.max_abs_error", None),
    ("heptaspline.oracle", "convergence_study", "oracle.convergence_study", None),
    ("heptaspline.cascade", "reduce", "cascade.reduce", None),
    ("heptaspline.cascade", "simulate_direct", "cascade.simulate_direct", _count_steps),
    ("heptaspline.cli", "load_config", "cli.load_config", None),
    ("heptaspline.cli", "main", "cli.main", None),
)

#: Span names in report order.
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    """Spans and per-layer statistics of the calls made while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)      # "<layer>.<count>" -> sum
        self.maxima = defaultdict(float)    # "<layer>.<ratio>_max" -> max
        self._stack: list = []              # [span index, child ns] per open span
        self._restore: list = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)
            frame = [index, 0]
            tracer._stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                tracer.failed[name] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (tracer.op, name, start, end, parent)
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        if key.endswith("_max"):
                            tracer.maxima[f"{name}.{key}"] = max(tracer.maxima[f"{name}.{key}"], value)
                        else:
                            tracer.counts[f"{name}.{key}"] += value

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever an imported heptaspline module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "heptaspline" or key.startswith("heptaspline.")]
        for module_name, path, name, counter in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:        # heptaspline.cli is only imported by CLI runs
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:          # a method: patch the class and its aliases
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, counter)
                for alias, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, alias, wrapper)
                        self._restore.append((owner, alias, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)
                        self._restore.append((module, alias, original))

    def uninstall(self) -> None:
        for owner, alias, original in reversed(self._restore):
            setattr(owner, alias, original)
        self._restore.clear()

    def merge(self, other: dict) -> None:
        """Add the statistics of a tracer dumped by another process."""
        for name, value in other["calls"].items():
            self.calls[name] += value
        for name, value in other["self_ns"].items():
            self.self_ns[name] += value
        for name, value in other["failed"].items():
            self.failed[name] += value
        for name, value in other["counts"].items():
            self.counts[name] += value
        for name, value in other["maxima"].items():
            self.maxima[name] = max(self.maxima[name], value)
        base = len(self.spans)
        for _, name, start, end, parent in other["spans"]:
            self.spans.append((self.op, name, start, end, parent + base if parent >= 0 else -1))

    def totals(self) -> dict:
        """Every computed count so far: calls, failures and summed counts."""
        return {**self.calls, **{f"{k}.failed": v for k, v in self.failed.items()}, **self.counts}

    def state(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "failed": dict(self.failed), "counts": dict(self.counts),
                "maxima": dict(self.maxima), "spans": self.spans}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.state(), fh)
