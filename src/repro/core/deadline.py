"""Deadline-constrained cost optimisation: the cost/makespan frontier.

The paper sells LiPS for "when constraints on overall makespan are
flexible" and cites deadline-sensitive scheduling (Bicer et al.) as the
complementary regime.  The offline co-scheduling LP already expresses a
deadline: solving with ``horizon = D`` caps every machine's usable CPU at
``TP * D``, so the optimum is *the cheapest schedule finishing within D*.

:func:`min_cost_for_deadline` wraps that reading, and
:func:`cost_deadline_frontier` sweeps deadlines into the Pareto frontier a
user would pick an operating point from (the analytic cousin of the Figure
8 epoch sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution


@dataclass
class FrontierPoint:
    """One (deadline, minimal cost) point; infeasible deadlines keep None."""

    deadline_s: float
    cost: Optional[float]
    solution: Optional[CoScheduleSolution]

    @property
    def feasible(self) -> bool:
        """True when a schedule meeting this deadline exists."""
        return self.cost is not None


@dataclass
class CostDeadlineFrontier:
    points: List[FrontierPoint]

    def feasible_points(self) -> List[FrontierPoint]:
        """The frontier's feasible (deadline, cost) points."""
        return [p for p in self.points if p.feasible]

    def cheapest(self) -> Optional[FrontierPoint]:
        """The lowest-cost feasible point (None if none feasible)."""
        feas = self.feasible_points()
        return min(feas, key=lambda p: p.cost) if feas else None

    def pick(self, max_deadline_s: float) -> Optional[FrontierPoint]:
        """Cheapest feasible point within a makespan budget."""
        ok = [p for p in self.feasible_points() if p.deadline_s <= max_deadline_s]
        return min(ok, key=lambda p: p.cost) if ok else None


def min_deadline(inp: SchedulingInput) -> float:
    """A lower bound on any feasible deadline: total work / total speed.

    (Ignores bandwidth and divisibility, so the true minimum can be higher;
    used to seed sweep ranges.)
    """
    total_speed = float(inp.tp.sum())
    if total_speed <= 0:
        raise ValueError("cluster has no CPU throughput")
    return float(inp.cpu.sum()) / total_speed


def min_cost_for_deadline(
    inp: SchedulingInput,
    deadline_s: float,
    backend: Optional[object] = None,
) -> FrontierPoint:
    """Cheapest co-schedule finishing within ``deadline_s`` (or infeasible)."""
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    try:
        sol = solve_co_offline(inp, backend=backend, horizon=deadline_s)
    except RuntimeError:
        return FrontierPoint(deadline_s=deadline_s, cost=None, solution=None)
    return FrontierPoint(
        deadline_s=deadline_s,
        cost=sol.cost_breakdown(inp).real_total,
        solution=sol,
    )


def cost_deadline_frontier(
    inp: SchedulingInput,
    deadlines: Optional[Sequence[float]] = None,
    num_points: int = 8,
    backend: Optional[object] = None,
) -> CostDeadlineFrontier:
    """Sweep deadlines into the cost/makespan Pareto frontier.

    Default deadlines span geometrically from just above the work-based
    lower bound to 20x it (where the cheapest machines can absorb all
    work and cost flattens out).
    """
    if deadlines is None:
        base = min_deadline(inp)
        deadlines = list(base * np.geomspace(1.05, 20.0, num_points))
    points = [
        min_cost_for_deadline(inp, d, backend=backend) for d in sorted(deadlines)
    ]
    return CostDeadlineFrontier(points=points)
