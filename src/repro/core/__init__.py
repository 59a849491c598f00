"""LiPS core: the paper's LP scheduling models and the epoch controller.

Three models, exactly mirroring the paper's figures:

* :func:`~repro.core.simple_task.solve_simple_task` — offline simple task
  scheduling (paper Figure 2): data placement fixed, tasks fractional.
* :func:`~repro.core.co_offline.solve_co_offline` — offline cost-efficient
  co-scheduling (paper Figure 3): data placement becomes part of the LP.
* :func:`~repro.core.co_online.solve_co_online` — the online epoch model
  (paper Figure 4): capacity per epoch, transfer-time constraint (21), and
  the always-feasible fake node F.

:class:`~repro.core.epoch.EpochController` drives the online model across
epochs, re-queuing fake-node residuals and accounting dollar costs; it and
the simulator's LiPS plan each epoch with :func:`~repro.core.epoch.plan_epoch`.
:mod:`repro.core.rounding` converts fractional schedules into integral task
counts with the minimum-viable-task-size rule.
"""

from repro.core.co_offline import solve_co_offline
from repro.core.co_online import solve_co_online
from repro.core.epoch import EpochController, EpochReport, OnlineRunResult
from repro.core.fairness import FairShareConfig, fulfillment_ratios, jains_index
from repro.core.model import SchedulingInput, split_multi_object_jobs
from repro.core.rounding import IntegralSchedule, round_schedule
from repro.core.simple_task import identity_placement, solve_simple_task
from repro.core.solution import CoScheduleSolution, CostBreakdown, validate_solution

__all__ = [
    "CoScheduleSolution",
    "CostBreakdown",
    "EpochController",
    "EpochReport",
    "FairShareConfig",
    "IntegralSchedule",
    "OnlineRunResult",
    "SchedulingInput",
    "fulfillment_ratios",
    "identity_placement",
    "jains_index",
    "round_schedule",
    "solve_co_offline",
    "solve_co_online",
    "solve_simple_task",
    "split_multi_object_jobs",
    "validate_solution",
]
