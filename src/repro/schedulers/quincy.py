"""Quincy-style min-cost-flow scheduling (Isard et al., SOSP 2009).

The paper's main graph-based related work: "Quincy is a graph-based
scheduling model targeting fairness and data locality.  Its main idea is to
map the scheduling problem onto a min-cost network flow model ...  its
solution is a schedule that minimizes global cost."

This implementation maps the current queue onto a flow network

    task_i -> machine_l
          \\-> unscheduled

with unit task supplies, per-machine slot capacities, and edge costs that
encode either Quincy's own objective (bytes moved across the network —
``objective="locality"``) or LiPS' (dollars — ``objective="dollars"``).
The network is a transportation problem, so it is solved as an LP on the
same path as every other model here (:data:`repro.lp.DEFAULT_BACKEND`,
profiled by :mod:`repro.obs.lpprof`): one equality row per task over its
placement columns and its ``unscheduled`` column, one slot-cap row per
live machine.  Its constraint matrix is totally unimodular, so the
simplex vertex the backend returns is integral.  Tasks routed to a machine
are queued on that machine's plan; tasks routed to ``unscheduled`` wait
for the next solve, where their accumulated wait lowers the penalty of
staying unscheduled more slowly than the cost of a bad placement grows —
Quincy's patience mechanism.

The network is re-solved at most every ``refresh_s`` simulated seconds and
whenever the queue changes shape (arrivals, completions, failures).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.lp.problem import AssembledLP, CsrMatrix
from repro.lp.result import LPStatus
from repro.schedulers.base import Assignment, TaskScheduler


class QuincyScheduler(TaskScheduler):
    """Batch min-cost-flow scheduler.

    Parameters
    ----------
    objective:
        ``"locality"`` — edge cost is the MB a placement moves across the
        network (Quincy's objective); ``"dollars"`` — edge cost is the
        marginal dollar cost (execution + transfer), turning the same flow
        machinery into a cost-greedy batch optimiser.
    refresh_s:
        Minimum simulated seconds between solves (plus dirty-triggered
        solves on queue changes).
    unscheduled_cost_mb:
        Penalty (in the objective's units per task) for leaving a task
        unscheduled this round; lower values make the scheduler more
        patient for good placements.
    max_tasks_per_solve:
        Caps the network size; excess tasks wait for the next round.
    slots_lookahead:
        Each machine's slot cap is ``map_slots * slots_lookahead``,
        letting one solve queue several task waves per machine (fewer,
        larger solves).
    """

    def __init__(
        self,
        objective: str = "locality",
        refresh_s: float = 3.0,
        unscheduled_cost_mb: float = 16.0,
        max_tasks_per_solve: int = 500,
        slots_lookahead: int = 3,
    ) -> None:
        super().__init__()
        if objective not in ("locality", "dollars"):
            raise ValueError("objective must be 'locality' or 'dollars'")
        if refresh_s <= 0:
            raise ValueError("refresh_s must be positive")
        if slots_lookahead < 1:
            raise ValueError("slots_lookahead must be >= 1")
        self.objective = objective
        self.refresh_s = refresh_s
        self.unscheduled_cost_mb = unscheduled_cost_mb
        self.max_tasks_per_solve = max_tasks_per_solve
        self.slots_lookahead = slots_lookahead
        self._plans: Dict[int, Deque[Tuple[object, SimTask, Optional[int]]]] = {}
        self._dirty = True
        self._last_solve = float("-inf")
        self.solves = 0

    # -- notifications -------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        self._plans = {m.machine_id: deque() for m in sim.cluster.machines}

    def on_job_added(self, job, now: float) -> None:
        self._dirty = True

    def on_task_complete(self, job, task, now: float) -> None:
        """Completions keep the plan valid; a fresh solve happens on drain."""

    def on_machine_failed(self, machine_id: int, now: float) -> None:
        self._plans[machine_id].clear()
        self._dirty = True

    def on_machine_recovered(self, machine_id: int, now: float) -> None:
        self._dirty = True

    # -- edge costs -----------------------------------------------------------
    def _edge_cost(self, task: SimTask, machine_id: int, store: Optional[int]) -> float:
        """Objective units for running ``task`` on ``machine_id`` via ``store``."""
        if self.objective == "locality":
            if store is None or task.input_mb == 0:
                return 0.0
            s = self.sim.cluster.stores[store]
            if s.colocated_machine == machine_id:
                return 0.0
            machine = self.sim.cluster.machines[machine_id]
            # zone-local reads are cheaper than cross-zone, as in Quincy's
            # rack/cluster cost tiers
            factor = 0.25 if s.zone == machine.zone else 1.0
            return task.input_mb * factor
        # dollars
        machine = self.sim.cluster.machines[machine_id]
        cost = machine.execution_cost(task.cpu_seconds)
        if store is not None and task.input_mb > 0:
            cost += task.input_mb * self.sim.cluster.network.ms_cost[machine_id, store]
        return cost

    def _best_store(self, task: SimTask, machine_id: int) -> Optional[int]:
        if task.input_mb == 0:
            return None
        online = [s for s in task.candidate_stores if self.sim.store_online(s)]
        if not online:
            return None
        return min(online, key=lambda s: self._edge_cost(task, machine_id, s))

    def _unscheduled_cost(self, task: SimTask, best_edge: float) -> float:
        """Penalty for leaving the task unscheduled this round.

        Must exceed the task's best placement cost, so ``unscheduled`` only
        absorbs capacity overflow (min-cost flow then parks the tasks whose
        placements are *worst*, which is exactly Quincy's patience).
        """
        if self.objective == "locality":
            base = self.unscheduled_cost_mb
        else:
            # a rough dollar equivalent: cross-zone price for the penalty MB
            base = self.unscheduled_cost_mb * float(self.sim.cluster.network.ms_cost.max())
        return base + 2.0 * best_edge

    # -- the flow solve ----------------------------------------------------------
    def _solve(self, now: float) -> None:
        self.solves += 1
        self._last_solve = now
        self._dirty = False
        for plan in self._plans.values():
            plan.clear()

        entries: List[Tuple[object, SimTask]] = []
        for job in self.sim.jobtracker.queue:
            for task in job.pending:
                if task.earliest_start <= now:
                    entries.append((job, task))
                if len(entries) >= self.max_tasks_per_solve:
                    break
            if len(entries) >= self.max_tasks_per_solve:
                break
        if not entries:
            return

        # columns: each task's placements on live machines with an online
        # replica, then its "unscheduled" column; placement[j] is the column's
        # (machine, source store), None for "unscheduled"
        alive = [t for t in self.sim.trackers if t.alive]
        cost: List[float] = []
        task_of: List[int] = []
        placement: List[Optional[Tuple[int, Optional[int]]]] = []
        cap_rows: List[int] = []
        cap_cols: List[int] = []
        for i, (job, task) in enumerate(entries):
            best_edge = float("inf")
            for row, tracker in enumerate(alive):
                store = self._best_store(task, tracker.machine_id)
                if task.input_mb > 0 and store is None:
                    continue  # no online replica
                edge = self._edge_cost(task, tracker.machine_id, store)
                best_edge = min(best_edge, edge)
                cap_rows.append(row)
                cap_cols.append(len(cost))
                cost.append(edge)
                task_of.append(i)
                placement.append((tracker.machine_id, store))
            if not (best_edge < float("inf")):
                best_edge = 0.0  # no placement possible: wait for free
            cost.append(self._unscheduled_cost(task, best_edge))
            task_of.append(i)
            placement.append(None)

        n_cols = len(cost)
        asm = AssembledLP(
            c=np.asarray(cost),
            a_ub=CsrMatrix.from_coo(
                cap_rows, cap_cols, np.ones(len(cap_cols)), (len(alive), n_cols)
            ),
            b_ub=np.array(
                [t.map_slots * self.slots_lookahead for t in alive], dtype=np.float64
            ),
            a_eq=CsrMatrix.from_coo(
                task_of, np.arange(n_cols), np.ones(n_cols), (len(entries), n_cols)
            ),
            b_eq=np.ones(len(entries)),
            bounds=np.tile(np.array([0.0, 1.0]), (n_cols, 1)),
            name="quincy",
        )
        from repro.lp import DEFAULT_BACKEND

        result = DEFAULT_BACKEND.solve_assembled(asm)
        if result.status is not LPStatus.OPTIMAL:
            raise RuntimeError(
                f"Quincy flow LP not solvable: {result.status.value} ({result.message})"
            )
        x = result.x
        if np.abs(x - np.round(x)).max() > 1e-9:
            raise RuntimeError("Quincy flow LP returned a fractional vertex")
        for col in np.flatnonzero(x > 0.5):
            if placement[col] is not None:
                machine_id, store = placement[col]
                job, task = entries[task_of[col]]
                self._plans[machine_id].append((job, task, store))

    # -- slot offers ---------------------------------------------------------------
    def _plans_drained(self) -> bool:
        return all(not p for p in self._plans.values())

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        stale = now - self._last_solve >= self.refresh_s
        drained = self._plans_drained() and self.sim.jobtracker.has_pending_tasks()
        if (self._dirty and stale) or (drained and now > self._last_solve):
            self._solve(now)
        plan = self._plans.get(tracker.machine_id)
        while plan:
            job, task, store = plan.popleft()
            if not task.queued or task.key in job.completed:
                continue  # stale entry
            if store is not None and not self.sim.store_online(store):
                self._dirty = True
                continue
            return Assignment(job=job, task=task, source_store=store)
        return None

    @property
    def name(self) -> str:
        """Display name including the objective."""
        return f"QuincyScheduler({self.objective})"
