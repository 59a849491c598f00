"""Job DAGs and the paper's levelling reduction (Section III).

"Workloads with inter-task dependencies (often expressed as a DAG) can be
reduced to the independent task setting through leveling techniques, in
which sets of mutually independent tasks of the DAG are organized into
'levels' within which independent task set scheduling is then applied."

:class:`JobDag` wraps a workload plus a dependency relation; ``levels()``
returns the topological generations (:class:`graphlib.TopologicalSorter`),
each an independent job set the LiPS LPs can co-schedule directly.
:func:`schedule_dag_offline` runs the offline co-scheduling model level by
level, carrying the data placement forward so successors find their inputs
where their predecessors left them ("scheduling tasks close to their
predecessors since the successors' target data is more likely to have been
stored nearby").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.builder import Cluster
from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.workload.job import DataObject, Job, Workload


class JobDag:
    """A workload with job-level dependencies.

    Edges point from prerequisite to dependent: ``add_dependency(a, b)``
    means job ``a`` must complete before job ``b`` starts.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._preds: Dict[int, Set[int]] = {j.job_id: set() for j in workload.jobs}

    def _sorter(self) -> TopologicalSorter:
        """A prepared sorter over the graph; raises ``CycleError`` on a cycle."""
        sorter = TopologicalSorter(self._preds)
        sorter.prepare()
        return sorter

    def add_dependency(self, before: int, after: int) -> None:
        """Declare that ``before`` must finish before ``after`` starts."""
        for jid in (before, after):
            if jid not in self._preds:
                raise KeyError(f"unknown job id {jid}")
        if before == after:
            raise ValueError("a job cannot depend on itself")
        self._preds[after].add(before)
        try:
            self._sorter()
        except CycleError:
            self._preds[after].discard(before)
            raise ValueError(f"dependency {before} -> {after} creates a cycle") from None

    def predecessors(self, job_id: int) -> List[int]:
        """Jobs that must finish before the given one."""
        return sorted(self._preds[job_id])

    def successors(self, job_id: int) -> List[int]:
        """Jobs gated on the given one."""
        return sorted(j for j, preds in self._preds.items() if job_id in preds)

    @property
    def num_edges(self) -> int:
        """Number of dependency edges."""
        return sum(len(p) for p in self._preds.values())

    def levels(self) -> List[List[int]]:
        """Topological generations: mutually independent job sets, in order."""
        sorter = self._sorter()
        levels: List[List[int]] = []
        while sorter.is_active():
            level = sorted(sorter.get_ready())
            sorter.done(*level)
            levels.append(level)
        return levels

    def critical_path_length(self) -> int:
        """Number of levels (the DAG's depth)."""
        return len(self.levels())

    def validate(self) -> None:
        """Raise if the dependency graph has a cycle."""
        try:
            self._sorter()
        except CycleError:
            raise ValueError("dependency graph has a cycle") from None

    def sub_workload(self, job_ids: Sequence[int]) -> Tuple[Workload, Dict[int, int]]:
        """Extract one level as a standalone workload.

        Jobs and their data objects are re-indexed densely; the returned map
        translates new job ids back to original ones.
        """
        sub, back, _ = self._extract(job_ids)
        return sub, back

    def _extract(
        self, job_ids: Sequence[int]
    ) -> Tuple[Workload, Dict[int, int], Dict[int, int]]:
        """:meth:`sub_workload` plus its original -> new data-id map."""
        data: List[DataObject] = []
        data_map: Dict[int, int] = {}
        jobs: List[Job] = []
        for jid in job_ids:
            job = self.workload.jobs[jid]
            for d in job.data_ids:
                if d not in data_map:
                    data_map[d] = len(data)
                    data.append(dataclasses.replace(self.workload.data[d], data_id=len(data)))
            jobs.append(
                dataclasses.replace(
                    job, job_id=len(jobs), data_ids=[data_map[d] for d in job.data_ids]
                )
            )
        back = {new_id: jid for new_id, jid in enumerate(job_ids)}
        return Workload(jobs=jobs, data=data), back, data_map


@dataclass
class LevelResult:
    """Outcome of co-scheduling one DAG level."""

    level_index: int
    job_ids: List[int]
    solution: CoScheduleSolution
    cost: float
    makespan_estimate: float


@dataclass
class DagScheduleResult:
    """Aggregate outcome of :func:`schedule_dag_offline`."""

    levels: List[LevelResult]

    @property
    def total_cost(self) -> float:
        """Sum of per-level dollar costs."""
        return sum(l.cost for l in self.levels)

    @property
    def makespan_estimate(self) -> float:
        """Levels run back to back: the sum of per-level spans."""
        return sum(l.makespan_estimate for l in self.levels)

    @property
    def num_levels(self) -> int:
        """Number of scheduled levels."""
        return len(self.levels)


def _level_makespan(inp: SchedulingInput, sol: CoScheduleSolution) -> float:
    """Per-level span estimate: the busiest machine's CPU time plus the
    slowest (machine, store) stream's transfer time."""
    load = sol.machine_cpu_load(inp)
    with np.errstate(divide="ignore", invalid="ignore"):
        busy = np.where(inp.tp > 0, load / inp.tp, 0.0)
    mb = sol.transfer_mb(inp)
    with np.errstate(divide="ignore", invalid="ignore"):
        stream = np.where(inp.bandwidth > 0, mb / inp.bandwidth, 0.0)
    return float(busy.max(initial=0.0) + stream.max(initial=0.0))


def schedule_dag_offline(
    cluster: Cluster,
    dag: JobDag,
    backend: Optional[object] = None,
    placement_tiebreak: float = 1e-9,
) -> DagScheduleResult:
    """Co-schedule a DAG level by level with carried-forward placement.

    After each level solves, every data object's origin is updated to the
    store holding the largest placed fraction, so later levels that re-read
    the same objects pay no second relocation (the locality-carrying effect
    the paper describes for DAG workloads).
    """
    dag.validate()
    origins = {d.data_id: d.origin_store for d in dag.workload.data}
    results: List[LevelResult] = []
    for idx, level in enumerate(dag.levels()):
        sub, _, data_map = dag._extract(level)
        # apply carried-forward origins
        for original_id, new_id in data_map.items():
            sub.data[new_id].origin_store = origins[original_id]
        inp = SchedulingInput.from_parts(cluster, sub)
        sol = solve_co_offline(inp, backend=backend, placement_tiebreak=placement_tiebreak)
        cost = sol.cost_breakdown(inp).real_total
        results.append(
            LevelResult(
                level_index=idx,
                job_ids=list(level),
                solution=sol,
                cost=cost,
                makespan_estimate=_level_makespan(inp, sol),
            )
        )
        # carry placements forward
        for original_id, new_id in data_map.items():
            placed = sol.xd[new_id]
            if placed.max() > 0:
                origins[original_id] = int(np.argmax(placed))
    return DagScheduleResult(levels=results)


def chain(workload: Workload, order: Optional[Sequence[int]] = None) -> JobDag:
    """Convenience: a linear pipeline DAG (each job depends on the previous)."""
    dag = JobDag(workload)
    ids = list(order) if order is not None else [j.job_id for j in workload.jobs]
    for a, b in zip(ids, ids[1:]):
        dag.add_dependency(a, b)
    return dag
