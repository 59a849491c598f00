"""Pluggable task schedulers for the Hadoop simulator.

* :class:`~repro.schedulers.fifo.FifoScheduler` — Hadoop's default:
  FIFO job order with greedy locality (node, then zone, then any);
* :class:`~repro.schedulers.delay.DelayScheduler` — Zaharia et al.'s delay
  scheduling (the paper's strongest "move computation" baseline);
* :class:`~repro.schedulers.greedy_cost.GreedyCostScheduler` — the
  Section IV greedy strawman (cheapest ``JM + MS`` per assignment):
  optimal with ample capacity, dearer than LiPS under contention;
* :class:`~repro.schedulers.quincy.QuincyScheduler` — the related-work
  graph baseline: batch min-cost-flow scheduling (Isard et al.);
* :class:`~repro.schedulers.lips.LipsScheduler` — the paper's contribution:
  epoch-based LP co-scheduling of data and tasks.
"""

from repro.schedulers.base import Assignment, TaskScheduler
from repro.schedulers.delay import DelayScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.greedy_cost import GreedyCostScheduler
from repro.schedulers.lips import LipsScheduler
from repro.schedulers.quincy import QuincyScheduler

__all__ = [
    "Assignment",
    "DelayScheduler",
    "FifoScheduler",
    "GreedyCostScheduler",
    "LipsScheduler",
    "QuincyScheduler",
    "TaskScheduler",
]
