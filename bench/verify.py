"""verify workload: the oracle's traffic, RK stepping on random 7-scale cascades.

One op parses the cascade's forces, runs ``reduce``, ``simulate_direct`` and
``rk_solve`` at 10 000 steps, requires the top scale to agree within 1e-6,
then solves the reduced problem in improved mode at n=20 and measures it
against the RK trajectory with ``max_abs_error``.

The inputs are REFERENCES cascades drawn from a fixed stream, then SEEDED
cascades drawn from the seed; a timed run goes through them in order, so its
latency percentiles come from distinct cascades.  A pass, which every run
completes and the traced run repeats, is the first PASS_SIZE of them.
err_gmean is taken over the reference cascades only: spline errors of random
cascades spread over orders of magnitude, and a geometric mean over the few
hundred a run can afford would move by more than its bound from one seed to
the next.
"""

from __future__ import annotations

import random
import resource

import numpy as np

import heptaspline as hs
from data import (CASCADE_AGREEMENT, VERIFY_ERROR_CEILING, CheckFailed,
                  cascade_spec)

STEPS = 10_000
N_KNOTS = 20
REFERENCE_SEED = 2024
REFERENCES = 4
SEEDED = 400
PASS_SIZE = 32


class Workload:
    def __init__(self, seed: int, workdir):
        reference_rng, rng = random.Random(REFERENCE_SEED), random.Random(seed)
        items = [(True, cascade_spec(reference_rng)) for _ in range(REFERENCES)]
        items += [(False, cascade_spec(rng)) for _ in range(SEEDED)]
        #: (is_reference, cascade spec)
        self.items = items
        self.pass_size = PASS_SIZE
        self.params = hs.optimal_family(30)

    def run(self, item, tracer=None):
        _, spec = item
        model = hs.CascadeModel(
            n_scales=7,
            gamma=spec["gamma"],
            forces=tuple(hs.parse(text) for text in spec["forces"]),
            init_velocities=tuple(spec["velocities"]),
            interval=(0.0, 1.0),
        )
        problem = hs.reduce(model)
        _, direct = hs.simulate_direct(model, STEPS)
        trajectory = hs.rk_solve(problem, STEPS)
        disagreement = float(np.max(np.abs(direct[:, 0] - trajectory.y)))
        grid = hs.lu_solve(hs.build(problem, self.params, hs.EndConditionMode.IMPROVED, N_KNOTS))
        return disagreement, hs.max_abs_error(grid, trajectory)

    def check(self, item, out):
        disagreement, error = out
        if not disagreement <= CASCADE_AGREEMENT:
            raise CheckFailed(f"direct vs reduced disagreement {disagreement:.3e}")
        if not error <= VERIFY_ERROR_CEILING:
            raise CheckFailed(f"spline vs RK error {error:.3e} above {VERIFY_ERROR_CEILING:.0e}")
        return [error] if item[0] else []

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
