"""LiPS: the paper's LP-driven data and task co-scheduler, in the simulator.

Every epoch (paper Figure 4) LiPS:

1. snapshots all queued jobs' still-unplanned map tasks;
2. groups each job's tasks by the *zone* currently holding their blocks and
   solves the online co-scheduling LP over a zone-aggregated store model
   (:func:`repro.core.epoch.plan_epoch`, shared with the epoch controller);
3. rounds the fractional solution to integral task counts;
4. realises the plan: blocks are moved to their LP-chosen stores (placement
   dollars charged; tasks become runnable when the move lands) and each task
   is pinned to a machine's plan queue;
5. tasks landing on the fake node stay unplanned and re-enter step 1 next
   epoch.

Zone aggregation
----------------
The LP's store set is one virtual store per availability zone rather than
one per DataNode.  Under the paper's EC2 cost model this is *cost-exact*:
intra-zone transfer is free, so every store in a zone is price-equivalent,
and only the zone choice affects dollars.  It shrinks the LP from
``K x L x S`` to ``K x L x Z`` columns (Z = 3 zones), which is what keeps
per-epoch solves in the tens of milliseconds the paper reports.  Locality
*within* the chosen zone is restored during realisation: a task planned onto
machine *l* with data in *l*'s zone gets its block moved to *l*'s own
DataNode (a free intra-zone move) and reads node-locally.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.epoch import plan_epoch
from repro.core.model import SchedulingInput
from repro.core.rounding import round_schedule
from repro.hadoop.jobtracker import JobState
from repro.obs.spans import PlanLinks
from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler
from repro.workload.job import DataObject, Job, Workload


class _PlanEntry:
    """One planned task waiting for its machine's next free slot.

    ``links`` captures the causal context of the planning decision (the
    epoch span, the LP solve, the data move the task waits on) on traced
    runs; ``None`` otherwise.
    """

    __slots__ = ("job", "task", "source_store", "links")

    def __init__(
        self,
        job: JobState,
        task: SimTask,
        source_store: Optional[int],
        links: Optional[PlanLinks] = None,
    ) -> None:
        self.job = job
        self.task = task
        self.source_store = source_store
        self.links = links


def build_zone_aggregate(cluster: Cluster) -> Cluster:
    """A copy of ``cluster`` whose stores collapse to one virtual store/zone."""
    builder = ClusterBuilder(topology=Topology.of(cluster.topology.zone_names()))
    builder.topology = cluster.topology  # reuse bandwidth/latency config
    for m in cluster.machines:
        builder.add_machine(
            name=m.name,
            ecu=m.ecu,
            cpu_cost=m.cpu_cost,
            zone=m.zone,
            map_slots=m.map_slots,
            uptime=m.uptime,
            memory_gb=m.memory_gb,
            instance_type=m.instance_type,
            with_store=False,
        )
    cap_by_zone: Dict[str, float] = {}
    for s in cluster.stores:
        cap_by_zone[s.zone] = cap_by_zone.get(s.zone, 0.0) + s.capacity_mb
    for zone in cluster.topology.zone_names():
        builder.add_remote_store(f"zone-store-{zone}", cap_by_zone.get(zone, 0.0), zone)
    return builder.build()


class LipsScheduler(TaskScheduler):
    """Epoch-based LP co-scheduler (the paper's contribution).

    Parameters
    ----------
    epoch_length:
        Seconds per epoch — the paper's cost/performance dial.
    backend:
        LP backend (defaults to HiGHS); if it fails, the epoch is planned
        greedily and counted in ``SimMetrics.epochs_degraded``.
    """

    def __init__(
        self,
        epoch_length: float = 600.0,
        backend: Optional[object] = None,
    ) -> None:
        super().__init__()
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        self.epoch_length = epoch_length
        self.backend = backend
        self.plans: Dict[int, Deque[_PlanEntry]] = {}
        #: machines whose plan is non-empty: the only offers that can place
        #: a task (see :meth:`offer_trackers`)
        self._planned_machines: Set[int] = set()
        #: per machine, a lower bound on its plan entries' earliest_start:
        #: an offer before it finds every entry's data still in flight
        self._ready_at: Dict[int, float] = {}
        self._planned_keys: set = set()
        #: {"planned": n, "parked": m} for the most recent epoch — parked
        #: tasks landed on the LP's fake node and replan next epoch
        self.last_plan_stats: Dict[str, int] = {}
        self._zone_cluster: Optional[Cluster] = None
        self._zone_index: Dict[str, int] = {}
        self._stores_by_zone: Dict[int, List[int]] = {}
        self._zone_rr: Dict[int, int] = {}

    # -- binding -----------------------------------------------------------
    def bind(self, sim) -> None:
        super().bind(sim)
        self.plans = {m.machine_id: deque() for m in sim.cluster.machines}
        self._planned_machines = set()
        self._ready_at = {m.machine_id: math.inf for m in sim.cluster.machines}
        self._zone_cluster = build_zone_aggregate(sim.cluster)
        self._zone_index = {
            z: i for i, z in enumerate(sim.cluster.topology.zone_names())
        }
        self._stores_by_zone = {i: [] for i in self._zone_index.values()}
        for s in sim.cluster.stores:
            if s.colocated_machine is not None:
                self._stores_by_zone[self._zone_index[s.zone]].append(s.store_id)
        self._zone_rr = {i: 0 for i in self._zone_index.values()}

    # -- epoch planning -----------------------------------------------------
    def on_epoch(self, now: float) -> None:
        # deferred: repro.resilience imports back into repro.schedulers
        from repro.resilience.degraded import DEGRADED_MODEL

        # LP solve counting/timing happens in the shared repro.obs.lpprof
        # path installed by HadoopSimulator.run — no per-scheduler clocks.
        self.last_plan_stats = {}
        subjobs = self._collect_subjobs(now)
        if not subjobs:
            return
        inp, groups = self._build_lp_input(subjobs)
        sol = plan_epoch(
            inp, self.epoch_length, self.backend, scheduler="lips", tracer=self.sim.tracer,
            ts=now, fields={"scheduler": self.name, "queued": len(subjobs)},
        )
        if sol.model == DEGRADED_MODEL:
            self.sim.metrics.epochs_degraded += 1
        integral = round_schedule(inp, sol)
        self._realise(integral.task_counts, groups)

    def _collect_subjobs(self, now: float) -> List[Tuple[JobState, Optional[int], List[SimTask]]]:
        """Group unplanned pending tasks into (job, zone, tasks) sub-jobs.

        ``zone`` is None for input-less task groups.
        """
        out: List[Tuple[JobState, Optional[int], List[SimTask]]] = []
        for job in self.sim.jobtracker.queue:
            unplanned = [t for t in job.pending if t.key not in self._planned_keys]
            if not unplanned:
                continue
            by_zone: Dict[Optional[int], List[SimTask]] = {}
            for task in unplanned:
                if task.input_mb == 0:
                    by_zone.setdefault(None, []).append(task)
                    continue
                # authoritative block location from HDFS, preferring an
                # online replica (failures may have taken stores down)
                replicas = self.sim.hdfs.blocks[task.block_id].replicas
                online = [s for s in replicas if self.sim.store_online(s)]
                store = (online or replicas)[0]
                task.candidate_stores = list(online or replicas)
                zone = self._zone_index[self.sim.cluster.stores[store].zone]
                by_zone.setdefault(zone, []).append(task)
            for zone, tasks in sorted(by_zone.items(), key=lambda kv: (-1 if kv[0] is None else kv[0])):
                out.append((job, zone, tasks))
        return out

    def _build_lp_input(
        self, subjobs: List[Tuple[JobState, Optional[int], List[SimTask]]]
    ) -> Tuple[SchedulingInput, List[Tuple[JobState, Optional[int], List[SimTask]]]]:
        jobs: List[Job] = []
        data: List[DataObject] = []
        for idx, (job, zone, tasks) in enumerate(subjobs):
            total_mb = sum(t.input_mb for t in tasks)
            total_cpu = sum(t.cpu_seconds for t in tasks)
            if zone is None:
                jobs.append(
                    Job(
                        job_id=idx,
                        name=f"{job.job.name}/free",
                        tcp=0.0,
                        data_ids=[],
                        num_tasks=len(tasks),
                        cpu_seconds_noinput=total_cpu,
                        pool=job.job.pool,
                        app=job.job.app,
                    )
                )
                continue
            obj = DataObject(
                data_id=len(data),
                name=f"{job.job.name}/z{zone}",
                size_mb=total_mb,
                origin_store=zone,
            )
            data.append(obj)
            jobs.append(
                Job(
                    job_id=idx,
                    name=f"{job.job.name}/z{zone}",
                    tcp=total_cpu / total_mb if total_mb else 0.0,
                    data_ids=[obj.data_id],
                    num_tasks=len(tasks),
                    pool=job.job.pool,
                    app=job.job.app,
                )
            )
        workload = Workload(jobs=jobs, data=data)
        inp = SchedulingInput.from_parts(self._zone_cluster, workload)
        alive = np.array([tracker.alive for tracker in self.sim.trackers])
        if not alive.all():
            # a machine that is down has no CPU this epoch: planning onto it
            # would strand the tasks until (unless) it recovers
            inp = dataclasses.replace(inp, tp=np.where(alive, inp.tp, 0.0))
        return inp, subjobs

    # -- plan realisation ----------------------------------------------------
    def _dest_store(self, machine_id: int, zone: int) -> int:
        """Concrete DataNode for a block the LP placed in ``zone``.

        Prefer the target machine's own store (node-local read); otherwise
        round-robin over the zone's DataNodes.
        """
        machine_zone = self._zone_index[self.sim.cluster.machines[machine_id].zone]
        if machine_zone == zone:
            own = self.sim.cluster.store_for_machine(machine_id)
            if own is not None:
                return own.store_id
        stores = self._stores_by_zone[zone]
        if not stores:
            raise RuntimeError(f"no DataNodes in zone {zone}")
        pick = stores[self._zone_rr[zone] % len(stores)]
        self._zone_rr[zone] += 1
        return pick

    def _realise(
        self,
        task_counts: List[Dict[Tuple[int, int], int]],
        groups: List[Tuple[JobState, Optional[int], List[SimTask]]],
    ) -> None:
        planned = 0
        parked = 0
        traced = self.sim.tracer.enabled
        for idx, (job, zone, tasks) in enumerate(groups):
            remaining = list(tasks)
            for (machine_id, dst_zone), count in sorted(task_counts[idx].items()):
                for _ in range(count):
                    if not remaining:
                        break
                    task = remaining.pop()
                    if zone is None:
                        links = (
                            PlanLinks(
                                epoch=self.sim.current_epoch_span,
                                lp_solve=self.sim.last_lp_span,
                            )
                            if traced
                            else None
                        )
                        entry = _PlanEntry(job, task, None, links)
                    else:
                        dst_store = self._dest_store(machine_id, dst_zone)
                        block = self.sim.hdfs.blocks[task.block_id]
                        ready = self.sim.move_block(block, dst_store, job_id=job.job_id)
                        task.pinned_store = dst_store
                        task.candidate_stores = [dst_store]
                        task.earliest_start = ready
                        links = (
                            PlanLinks(
                                epoch=self.sim.current_epoch_span,
                                lp_solve=self.sim.last_lp_span,
                                move=self.sim.last_move_span,
                            )
                            if traced
                            else None
                        )
                        entry = _PlanEntry(job, task, dst_store, links)
                    self._enqueue(machine_id, entry)
                    planned += 1
            # tasks still in `remaining` were parked on the fake node:
            # they stay unplanned and re-enter next epoch's LP
            parked += len(remaining)
        self.last_plan_stats = {"planned": planned, "parked": parked}

    def _enqueue(self, machine_id: int, entry: _PlanEntry) -> None:
        """Append a planned task to its machine's plan, lowering its ready bound."""
        self.plans[machine_id].append(entry)
        self._planned_machines.add(machine_id)
        ready = entry.task.earliest_start
        if ready < self._ready_at[machine_id]:
            self._ready_at[machine_id] = ready
        self._planned_keys.add(entry.task.key)

    # -- failure handling -----------------------------------------------------
    def on_machine_failed(self, machine_id: int, now: float) -> None:
        """Un-plan everything pinned to the dead machine for next epoch."""
        plan = self.plans.get(machine_id)
        if not plan:
            return
        while plan:
            entry = plan.popleft()
            self._planned_keys.discard(entry.task.key)
            # a pinned store on the dead machine is unreadable: fall back to
            # wherever the block actually is when the LP replans
            entry.task.pinned_store = None
        self._planned_machines.discard(machine_id)
        self._ready_at[machine_id] = math.inf

    # -- slot offers ------------------------------------------------------------
    def offer_trackers(self, trackers: Sequence[TaskTracker]) -> List[TaskTracker]:
        """The trackers whose machine holds a plan, in ascending machine id.

        :meth:`select_task` on an empty plan declines without touching any
        state, so those offers are skipped.  The set is kept by
        :meth:`_enqueue`, :meth:`select_task` and :meth:`on_machine_failed`.
        """
        return [trackers[m] for m in sorted(self._planned_machines)]

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        machine_id = tracker.machine_id
        plan = self.plans.get(machine_id)
        if not plan or now < self._ready_at[machine_id]:
            # every entry's data is still in flight: the scan below would
            # rotate the plan back to its original order and find nothing
            return None
        # scan for the first runnable entry, preserving plan order
        ready_at = math.inf
        store_offline = False
        for _ in range(len(plan)):
            entry = plan[0]
            task = entry.task
            if not task.queued or task.key in entry.job.completed:
                plan.popleft()  # stale (shouldn't normally happen)
                continue
            if task.earliest_start > now:
                ready_at = min(ready_at, task.earliest_start)
                plan.rotate(-1)  # data in flight; try next
                continue
            if entry.source_store is not None and not self.sim.store_online(
                entry.source_store
            ):
                store_offline = True
                plan.rotate(-1)  # store offline; try next
                continue
            plan.popleft()
            if not plan:
                self._planned_machines.discard(machine_id)
            self._planned_keys.discard(task.key)
            return Assignment(
                job=entry.job,
                task=task,
                source_store=entry.source_store,
                links=entry.links,
            )
        if not plan:
            self._planned_machines.discard(machine_id)  # only stale entries
        if not store_offline:
            # only in-flight entries remain: none can run before the earliest
            self._ready_at[machine_id] = ready_at
        return None

    @property
    def name(self) -> str:
        """Display name including the epoch length."""
        return f"LipsScheduler(e={self.epoch_length:g}s)"
