"""Poisson arrivals for the online setting.

The service soak (:mod:`repro.resilience.soak`) draws one
:class:`PoissonArrivals` stream per concurrent submitter.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.workload.job import Job


class PoissonArrivals:
    """Assigns Poisson-process arrival times to a job list.

    The jobs' own ``arrival_time`` fields are ignored; a fresh draw with rate
    ``rate_per_s`` orders them.  Sampling happens once at construction so
    iteration is repeatable.  Yields ``(arrival_time, job)`` pairs in
    nondecreasing time order.
    """

    def __init__(self, jobs: Sequence[Job], rate_per_s: float, seed: int = 0) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate_per_s, size=len(jobs))
        times = np.cumsum(gaps)
        self._schedule: List[Tuple[float, Job]] = [
            (float(t), j) for t, j in zip(times, jobs)
        ]

    def __iter__(self) -> Iterator[Tuple[float, Job]]:
        yield from self._schedule
