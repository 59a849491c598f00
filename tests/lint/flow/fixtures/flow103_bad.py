"""FLOW103 fixture: an unseeded ``default_rng()`` inside a pool task.

Worker results depend on per-process RNG state, so the pass must flag
the task at its dispatch.
"""

from concurrent.futures import ProcessPoolExecutor

import numpy as np


def _sample(n):
    rng = np.random.default_rng()
    return float(rng.random(n).sum())


def sweep(sizes):
    with ProcessPoolExecutor() as pool:
        return list(pool.map(_sample, sizes))
