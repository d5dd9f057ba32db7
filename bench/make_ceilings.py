"""Regenerate bench/ceilings.json, the committed error ceilings of the sweep.

Run from the repository root:  python3 bench/make_ceilings.py

For every benchmark problem, end-condition mode, parameter kind (the three
published columns, and optimal_family(delta) over data.DELTAS) and n up to
data.N_MAX, the ceiling is CEILING_FACTOR times the largest max-abs error
this commit's solver gives.  The sweep and cli workloads fail an op whose
error exceeds it, so a change that quietly worsens an answer shows as a
failure rather than as a speed-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import heptaspline as hs  # noqa: E402
from data import (CEILINGS_PATH, COLUMNS, DELTAS, MIN_KNOTS, MODES,  # noqa: E402
                  N_MAX, PROBLEMS)

CEILING_FACTOR = 10.0


def main() -> None:
    ceilings = {}
    for problem, bench in zip(PROBLEMS, hs.oracle.BENCHMARKS):
        for mode in MODES:
            mode_enum = hs.EndConditionMode(mode)
            kinds = {name: [hs.SplineParams(*col)] for name, col in COLUMNS.items()}
            kinds["opt"] = [hs.optimal_family(d) for d in DELTAS]
            for kind, param_sets in kinds.items():
                row = []
                for n in range(MIN_KNOTS[mode], N_MAX + 1):
                    worst = max(hs.max_abs_error(hs.lu_solve(hs.build(bench.problem, p, mode_enum, n)),
                                                 bench.exact) for p in param_sets)
                    row.append(float(f"{CEILING_FACTOR * worst:.3g}"))
                ceilings[f"{problem}/{mode}/{kind}"] = {"n_min": MIN_KNOTS[mode], "ceiling": row}
                print(f"{problem}/{mode}/{kind}: {min(row):.2e} .. {max(row):.2e}", flush=True)
    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(entry)}" for key, entry in ceilings.items())
    CEILINGS_PATH.write_text(f'{{"factor": {CEILING_FACTOR}, "ceilings": {{\n{body}\n}}}}\n')


if __name__ == "__main__":
    main()
