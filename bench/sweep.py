"""sweep workload: the paper's error-table traffic, many small solves at n <= 96.

One op is ``build`` + ``lu_solve`` + ``max_abs_error`` against the
closed-form solution.  A pass is the 37 published table cells followed by
every (problem, mode, parameter set, n) with min_knots(mode) <= n <= 96,
where the parameter set is one of the three published columns or
``optimal_family(delta)``.  The seed draws each delta and shuffles the order.
"""

from __future__ import annotations

import random
import resource

import heptaspline as hs
from data import (COLUMNS, DELTAS, MIN_KNOTS, MODES, N_MAX, PROBLEMS, PUBLISHED,
                  CheckFailed, ceiling_kind, load_ceilings, published_ok)


class Workload:
    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        published = []
        for (problem, mode, column, n), value in PUBLISHED.items():
            delta = 30 if column == "opt30" else None
            published.append((problem, mode, ceiling_kind(column), delta, n, value))
        grid = [(problem, mode, column, rng.choice(DELTAS) if column == "opt" else None, n, None)
                for problem in PROBLEMS for mode in MODES for column in (*COLUMNS, "opt")
                for n in range(MIN_KNOTS[mode], N_MAX + 1)]
        rng.shuffle(grid)
        #: (problem, mode, column, delta, n, published error or None)
        self.items = published + grid
        self.pass_size = len(self.items)
        self.benchmarks = dict(zip(PROBLEMS, hs.oracle.BENCHMARKS))
        self.columns = {name: hs.SplineParams(*col) for name, col in COLUMNS.items()}
        self.modes = {mode: hs.EndConditionMode(mode) for mode in MODES}
        self.ceilings = load_ceilings()

    def run(self, item, tracer=None):
        problem, mode, column, delta, n, _ = item
        bench = self.benchmarks[problem]
        params = hs.optimal_family(delta) if delta is not None else self.columns[column]
        grid = hs.lu_solve(hs.build(bench.problem, params, self.modes[mode], n))
        return hs.max_abs_error(grid, bench.exact)

    def check(self, item, error):
        problem, mode, column, delta, n, published = item
        if published is not None:
            if not published_ok(error, published):
                raise CheckFailed(f"{problem} {mode} n={n}: error {error:.3e} vs published {published:.2e}")
        elif not error <= self.ceilings[(problem, mode, column)][n]:
            raise CheckFailed(f"{problem} {mode} {column} delta={delta} n={n}: error {error:.3e} "
                              f"above ceiling {self.ceilings[(problem, mode, column)][n]:.3e}")
        return [error]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
