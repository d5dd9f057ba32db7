"""Machine-speed yardsticks: fixed work, independent of heptaspline.

A run times a yardstick before and after every block of ops and divides
each op's wall time by its block's speed factor: the mean of the two
yardstick times around the block over the yardstick's reference time.
Timings are thus reported in milliseconds at the reference speed, and a
change in the program shows while a change in the machine's speed mostly
does not (see README.md, "Noise on this machine").

``inprocess`` mimics the ``sweep`` and ``verify`` ops: small-numpy RK4
stepping of a 7-scale cascade in an interpreter loop, and LU solves of small
dense matrices.  ``spawn`` mimics a CLI call and set-up: a fresh interpreter
that imports numpy and scipy.linalg.  Neither touches heptaspline, so no
change to the program can move them.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: Seconds of each yardstick on the reference machine (2-vCPU KVM Intel
#: Xeon, model 207, 2.1 GHz, one BLAS thread): the 10th percentile of 1083
#: ``inprocess`` and 100 ``spawn`` times taken during fifteen benchmark runs.
REFERENCE_S = {"inprocess": 0.0242, "spawn": 0.316}

_STEPS = 2000
_LU_N = 64
_LU_REPEATS = 4


def inprocess() -> float:
    """Seconds for the in-process yardstick."""
    import numpy as np
    import scipy.linalg

    start = time.perf_counter()
    n, h, gamma = 7, 1.0 / _STEPS, 1.0
    shift = np.arange(1, n + 1) % n
    force = np.cos(np.linspace(0.0, 1.0, 2 * _STEPS + 1))
    y = np.linspace(-1.0, 1.0, n)
    for i in range(_STEPS):
        l0, l1, l2 = force[2 * i], force[2 * i + 1], force[2 * i + 2]
        k1 = -gamma * y[shift] + l0
        k2 = -gamma * (y + 0.5 * h * k1)[shift] + l1
        k3 = -gamma * (y + 0.5 * h * k2)[shift] + l1
        k4 = -gamma * (y + h * k3)[shift] + l2
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    matrix = np.eye(_LU_N) * 4.0 + np.add.outer(np.arange(_LU_N), np.arange(_LU_N)) % 7 * 0.1
    for _ in range(_LU_REPEATS):
        scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), y.sum() + np.arange(_LU_N))
    return time.perf_counter() - start


def spawn() -> float:
    """Seconds for a fresh interpreter to import numpy and scipy.linalg and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True)
    return time.perf_counter() - start


KINDS = {"inprocess": inprocess, "spawn": spawn}


def factors(kind: str, times: list[float]) -> list[float]:
    """Speed factor of each block from the yardstick times taken before the
    first block and after each block: the mean of the two around the block,
    over the reference time.  Above 1 means slower than the reference."""
    ref = REFERENCE_S[kind]
    return [(before + after) / 2.0 / ref for before, after in zip(times, times[1:])]
