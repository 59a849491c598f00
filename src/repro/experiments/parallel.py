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

Worker count resolution (:func:`resolve_workers`): an explicit ``workers``
argument wins; otherwise the ``REPRO_WORKERS`` environment variable;
otherwise serial.  ``0`` and ``1`` both mean "in process, no pool".
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: environment variable consulted when ``workers`` is not given explicitly
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 0."""
    if workers is not None:
        return max(0, int(workers))
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def run_tasks(
    fn: Callable[[T], R],
    seeded_tasks: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``seeded_tasks``, optionally across processes.

    ``fn`` must be a module-level (picklable) function and every element of
    ``seeded_tasks`` must carry its own rng seeds — see the module
    docstring's determinism contract.  Results preserve task order.  With
    fewer than two workers (or fewer than two tasks) the map runs in
    process, so the serial path stays the no-surprises default.
    """
    n = resolve_workers(workers)
    tasks = list(seeded_tasks)
    if n <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
