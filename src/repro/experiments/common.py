"""Shared experiment plumbing: scheduler line-ups and cached runs.

The paper's comparative figures always pit LiPS against the Hadoop default
(FIFO) and the delay scheduler.  Baselines run with speculative execution
enabled (Hadoop's default — the paper notes this raises their dollar cost);
LiPS runs with it disabled (Section VI-A).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

from repro.cluster.builder import Cluster
from repro.hadoop.metrics import SimMetrics
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import DelayScheduler, FifoScheduler, LipsScheduler
from repro.workload.job import Workload

#: canonical scheduler labels used across figures
DEFAULT, DELAY, LIPS = "default", "delay", "lips"

T = TypeVar("T")

#: the memo of the open :func:`share_runs` block (None outside one)
_runs: Optional[Dict[tuple, object]] = None


@contextlib.contextmanager
def share_runs() -> Iterator[None]:
    """Compute each :func:`shared` result once inside the block.

    ``repro fig6 fig7 check`` then runs the Figure 6 sweep once: both
    tables and both claims read the same result.  A nested block joins the
    outer one; outside any block :func:`shared` simply calls.
    """
    global _runs
    if _runs is not None:
        yield
        return
    _runs = {}
    try:
        yield
    finally:
        _runs = None


def shared(fn: Callable[..., T], *args) -> T:
    """``fn(*args)``, computed at most once per :func:`share_runs` block."""
    if _runs is None:
        return fn(*args)
    key = (fn, args)
    if key not in _runs:
        _runs[key] = fn(*args)
    return _runs[key]


@dataclass
class ComparisonResult:
    """Per-scheduler metrics for one (cluster, workload) setting."""

    metrics: Dict[str, SimMetrics]

    def cost(self, scheduler: str) -> float:
        """Total dollars of one scheduler's run."""
        return self.metrics[scheduler].total_cost

    def makespan(self, scheduler: str) -> float:
        """Makespan seconds of one scheduler's run."""
        return self.metrics[scheduler].makespan

    def saving_vs(self, baseline: str, scheduler: str = LIPS) -> float:
        """Fractional cost saving of ``scheduler`` relative to ``baseline``."""
        base = self.cost(baseline)
        if base <= 0:
            return 0.0
        return 1.0 - self.cost(scheduler) / base

    def slowdown_vs(self, baseline: str, scheduler: str = LIPS) -> float:
        """Fractional makespan increase of ``scheduler`` over ``baseline``."""
        base = self.makespan(baseline)
        if base <= 0:
            return 0.0
        return self.makespan(scheduler) / base - 1.0


@dataclass(frozen=True)
class LipsFactory:
    """Picklable factory for :class:`LipsScheduler` (lambdas can't cross a
    process boundary, and the parallel sweep path ships factories to
    workers)."""

    epoch_length: float
    backend: Optional[object] = None

    def __call__(self) -> LipsScheduler:
        """A fresh LiPS scheduler with this factory's configuration."""
        return LipsScheduler(epoch_length=self.epoch_length, backend=self.backend)


def scheduler_lineup(
    epoch_length: float,
    backend: Optional[object] = None,
) -> Dict[str, Tuple[Callable[[], object], bool]]:
    """Factories for the paper's three schedulers plus their speculation flag."""
    return {
        DEFAULT: (FifoScheduler, True),
        DELAY: (DelayScheduler, True),
        LIPS: (LipsFactory(epoch_length, backend), False),
    }


def _scheduler_task(seeded_task) -> Tuple[str, SimMetrics]:
    """Worker: run one scheduler on one (cluster, workload, seed) setting."""
    cluster, workload, name, factory, speculative, placement_seed = seeded_task
    sim = HadoopSimulator(
        cluster,
        workload,
        factory(),
        SimConfig(placement_seed=placement_seed, speculative=speculative),
    )
    return name, sim.run().metrics


def compare_schedulers(
    cluster: Cluster,
    workload: Workload,
    epoch_length: float,
    placement_seed: int = 7,
    backend: Optional[object] = None,
    schedulers: Optional[Dict[str, Tuple[Callable[[], object], bool]]] = None,
    workers: int = 0,
) -> ComparisonResult:
    """Run the full scheduler line-up on identical initial conditions.

    Each run re-populates HDFS with the same ``placement_seed``, so every
    scheduler starts from the same random block layout (the paper's
    shuffled-blocks baseline).

    ``workers`` fans the line-up out over a process pool (0/1 = serial).
    Every task carries its explicit seed, so parallel results are identical
    to serial.
    """
    from repro.experiments.parallel import run_tasks

    lineup = schedulers or scheduler_lineup(epoch_length, backend)
    seeded_tasks = [
        (cluster, workload, name, factory, speculative, placement_seed)
        for name, (factory, speculative) in lineup.items()
    ]
    results = run_tasks(_scheduler_task, seeded_tasks, workers)
    return ComparisonResult(metrics=dict(results))
