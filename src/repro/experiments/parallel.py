"""Process-level fan-out for experiment sweeps.

Sweep points (figure 5 sizes, figure 8 epoch lengths, the scheduler
line-up of :func:`repro.experiments.common.compare_schedulers`) are
embarrassingly parallel: every point is solved from an explicit seed and
shares no state with its neighbours.  This module provides the one shared
primitive — :func:`run_tasks` — that maps a picklable worker function over
fully *seeded* task tuples, serially or over a ``ProcessPoolExecutor``.

Determinism contract: a task tuple must carry every seed the worker needs
(``placement_seed``, workload seed, ...) so the result is identical
whether the task runs in-process or in a worker — the parallel path is a
pure wall-clock optimisation, never a semantic one.  Lint rule ``FLOW103``
flags a task whose call closure draws from ambient RNG, and
``tests/experiments/test_parallel.py`` pins serial == pooled for every
task function.

:func:`pool_size` gives a sweep one worker per CPU.  Only the sweeps
measured to finish sooner pooled call it: Figs 5, 8 and 9 at both their
reduced and paper sizes (on a 2-vCPU host, 10 alternating pairs each,
pooled won 9 or 10 of 10; Fig 5 at paper size ~7.9 s serial vs ~4.5 s).
Fig 6 runs one three-scheduler pool per node mix and stays in process:
pooled it won only 4 of 10 pairs, at ~0.68 s either way.
"""

from __future__ import annotations

import os
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def pool_size() -> int:
    """Workers for a pooled sweep: one per CPU.

    A traced or metered run stays in process: worker processes would
    report to neither the ambient tracer nor the ambient registry.
    """
    from repro.obs.registry import current_registry
    from repro.obs.trace import current_tracer

    if current_tracer().enabled or current_registry() is not None:
        return 0
    return os.cpu_count() or 1


def run_tasks(
    fn: Callable[[T], R],
    seeded_tasks: Sequence[T],
    workers: int = 0,
) -> List[R]:
    """Map ``fn`` over ``seeded_tasks``, optionally across processes.

    ``fn`` must be a module-level (picklable) function and every element of
    ``seeded_tasks`` must carry its own rng seeds — see the module
    docstring's determinism contract.  Results preserve task order.  With
    fewer than two workers (or fewer than two tasks) the map runs in
    process; otherwise the pool has ``min(workers, len(seeded_tasks))``
    processes.
    """
    tasks = list(seeded_tasks)
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
