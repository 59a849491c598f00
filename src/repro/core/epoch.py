"""The epoch controller: drives the online model across epochs.

Implements Section V-B's loop: wait an epoch, collect queued jobs, solve the
Figure 4 LP against the epoch's capacity, execute the scheduled fractions,
and re-queue whatever landed on the fake node F.  Dollar costs accumulate in
a :class:`~repro.cost.accounting.CostLedger`; per-node CPU time is recorded
per epoch (the paper's Figure 11 breakdown).

:func:`plan_epoch` is the one epoch step of both LiPS drivers, this
controller and the simulator's :class:`~repro.schedulers.lips.LipsScheduler`;
what the plan becomes (fluid execution here, rounding there) stays with each.

Residual jobs
-------------
When a fraction of a job is parked on F, the remainder re-enters the queue
as a *residual*: the same job scaled by the unscheduled fraction, its data
origin updated to wherever the scheduled portion placed the data (so
already-moved data is not re-charged).

Incremental driving
-------------------
:meth:`EpochController.run` consumes a whole pre-materialised workload, but
the loop body is exposed piecewise for long-running callers
(:mod:`repro.serve`): :meth:`~EpochController.begin` opens a run,
:meth:`~EpochController.submit` enqueues one job (with its private data
object), :meth:`~EpochController.step` schedules exactly one epoch, and
:meth:`~EpochController.finish` closes the run into an
:class:`OnlineRunResult`.  ``run()`` is itself written on top of this API,
so both paths execute identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import Cluster
from repro.core.co_online import OnlineModelUnsolved, solve_co_online
from repro.core.model import SchedulingInput
from repro.util import round_half_up
from repro.core.solution import CoScheduleSolution, CostBreakdown
from repro.cost.accounting import CostLedger
from repro.obs import lpprof
from repro.obs.ledger import DollarLedger, emit_run_summary
from repro.obs.registry import current_registry
from repro.obs.trace import current_tracer
from repro.workload.job import DataObject, Job, Workload

#: Fractions below this are considered fully scheduled (numerical noise).
MIN_RESIDUAL: float = 1e-6


def plan_epoch(
    inp: SchedulingInput,
    epoch_length: float,
    backend: Optional[object],
    *,
    scheduler: str,
    tracer,
    ts: float,
    fields: Dict[str, object],
    store_capacity: Optional[np.ndarray] = None,
    force_degraded: bool = False,
) -> CoScheduleSolution:
    """Plan one epoch with the Figure 4 LP against ``Cap^e`` (``store_capacity``).

    If the LP cannot be solved, or ``force_degraded`` is set, plan it with
    the greedy heuristic instead, count ``epochs_degraded_total{scheduler}``
    and trace an ``epoch.degraded`` event with ``fields`` at ``ts``.
    """
    # deferred: repro.resilience imports back into repro.core
    from repro.resilience.degraded import greedy_epoch_solution

    if not force_degraded:
        try:
            return solve_co_online(
                inp, epoch_length=epoch_length, backend=backend, store_capacity=store_capacity
            )
        except OnlineModelUnsolved:
            pass
    sol = greedy_epoch_solution(inp, epoch_length, store_capacity=store_capacity)
    registry = current_registry()
    if registry is not None:
        registry.counter(
            "epochs_degraded_total",
            help="epochs scheduled by the greedy degraded path",
        ).inc(scheduler=scheduler)
    if tracer.enabled:
        tracer.event("epoch", "degraded", ts, **fields)
    return sol


@dataclass
class _QueueEntry:
    """A queued (possibly residual) job."""

    job: Job
    fraction: float  # of the *original* job still to schedule
    origin_store: Optional[int]  # current data location; None if input-less


@dataclass
class EpochReport:
    """What happened in one epoch."""

    index: int
    start_time: float
    num_queued: int
    num_scheduled: int
    num_requeued: int
    cost: CostBreakdown
    machine_cpu_seconds: np.ndarray
    #: LP backend solves this epoch and their wall time (repro.obs.lpprof)
    lp_solves: int = 0
    lp_wall_seconds: float = 0.0
    #: True when the LP chain failed and the greedy degraded path scheduled
    #: this epoch instead
    degraded: bool = False


@dataclass
class _RunState:
    """Mutable state of one in-flight online run (incremental API)."""

    tracer: object
    ledger: CostLedger
    store_used_mb: np.ndarray
    machine_cpu_total: np.ndarray
    reports: List[EpochReport] = field(default_factory=list)
    job_completion: Dict[int, float] = field(default_factory=dict)
    queue: List[_QueueEntry] = field(default_factory=list)
    #: private, per-run data objects (jobs are re-pointed at these on submit)
    data: List[DataObject] = field(default_factory=list)
    epoch: int = 0


@dataclass
class OnlineRunResult:
    """Aggregate outcome of an online run."""

    reports: List[EpochReport]
    ledger: CostLedger
    job_completion: Dict[int, float]
    makespan: float
    machine_cpu_seconds: np.ndarray

    @property
    def total_cost(self) -> float:
        """Total dollars across the run's ledger."""
        return self.ledger.total

    @property
    def num_epochs(self) -> int:
        """Number of scheduling epochs executed."""
        return len(self.reports)

    def total_execution_time(self) -> float:
        """Sum of per-job response times (arrival -> completion)."""
        return sum(self.job_completion.values())


class EpochController:
    """Runs the online LiPS model epoch by epoch over a workload.

    Parameters
    ----------
    cluster:
        The target cluster.
    epoch_length:
        Seconds per epoch (``e``) — the cost/performance dial.
    backend:
        LP backend (defaults to HiGHS).
    max_epochs:
        Safety cap; the run aborts loudly rather than looping forever.
    tracer:
        Trace emitter; ``None`` falls back to the ambient tracer.
    """

    def __init__(
        self,
        cluster: Cluster,
        epoch_length: float,
        backend: Optional[object] = None,
        max_epochs: int = 100000,
        tracer: Optional[object] = None,
    ) -> None:
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        self.cluster = cluster
        self.epoch_length = epoch_length
        self.backend = backend
        self.max_epochs = max_epochs
        #: trace emitter; None falls back to the ambient tracer at run time
        self.tracer = tracer
        #: epochs scheduled by the degraded path in the most recent run
        self.degraded_epochs = 0
        #: optional live reconciliation: a :class:`repro.obs.ledger.
        #: RollingLedger` folded + re-reconciled against the run ledger
        #: after every scheduled epoch (repro.serve enables this; plain
        #: runs may attach one too).  Read-only over run state — attaching
        #: it cannot perturb scheduling or traces unless drift occurs.
        self.rolling_ledger = None
        #: in-flight incremental run state (None between runs)
        self._state: Optional[_RunState] = None

    # -- helpers -------------------------------------------------------------
    def _build_epoch_input(
        self, entries: List[_QueueEntry], data: List[DataObject]
    ) -> Tuple[SchedulingInput, List[int]]:
        """Scale queued entries into a one-epoch workload.

        Each entry becomes a job reading a private scaled copy of its data
        object (size ``fraction * original``), originating at the entry's
        current data location.
        """
        jobs: List[Job] = []
        objs: List[DataObject] = []
        for pos, entry in enumerate(entries):
            job = entry.job
            data_ids: List[int] = []
            if job.data_ids:
                orig = data[job.data_ids[0]]
                obj = DataObject(
                    data_id=len(objs),
                    name=f"{orig.name}@{pos}",
                    size_mb=orig.size_mb * entry.fraction,
                    origin_store=entry.origin_store
                    if entry.origin_store is not None
                    else orig.origin_store,
                    block_mb=orig.block_mb,
                )
                objs.append(obj)
                data_ids = [obj.data_id]
            jobs.append(
                Job(
                    job_id=pos,
                    name=job.name,
                    tcp=job.tcp if data_ids else 0.0,
                    data_ids=data_ids,
                    num_tasks=max(1, round_half_up(job.num_tasks * entry.fraction)),
                    cpu_seconds_noinput=job.cpu_seconds_noinput * entry.fraction,
                    arrival_time=job.arrival_time,
                    pool=job.pool,
                    app=job.app,
                    read_fraction=job.read_fraction,
                )
            )
        sub = Workload(jobs=jobs, data=objs)
        inp = SchedulingInput.from_parts(self.cluster, sub)
        return inp, [e.job.job_id for e in entries]

    @staticmethod
    def _charge(
        ledger: CostLedger,
        inp: SchedulingInput,
        sol: CoScheduleSolution,
        original_ids: List[int],
    ) -> CostBreakdown:
        """Record the epoch's real dollar costs with attribution."""
        bd = sol.cost_breakdown(inp)
        # CPU per (job, machine)
        cpu_jl = np.einsum("klm->kl", sol.xt_data) * inp.cpu[:, None] + sol.xt_free * inp.cpu[:, None]
        cost_jl = cpu_jl * inp.cluster.cpu_cost_vector()[None, :]
        for k, l in zip(*np.nonzero(cost_jl > 0)):
            ledger.charge_cpu(
                float(cost_jl[k, l]), job_id=original_ids[k], machine_id=int(l)
            )
        # runtime transfer per (machine, store)
        mb_lm = sol.transfer_mb(inp)
        cost_lm = mb_lm * inp.ms_cost
        for l, m in zip(*np.nonzero(cost_lm > 0)):
            ledger.charge_runtime_transfer(
                float(cost_lm[l, m]), machine_id=int(l), store_id=int(m)
            )
        # placement per (data, store) — each epoch data object is private to
        # one queued job, so moves attribute exactly to the job that owns it
        if inp.num_data:
            data_job = {
                int(inp.job_data[pos]): original_ids[pos]
                for pos in range(len(original_ids))
                if inp.job_data[pos] >= 0
            }
            moved = sol.xd.copy()
            moved[np.arange(inp.num_data), inp.origin] = 0.0
            cost_ij = moved * inp.ss_cost[inp.origin, :] * inp.data_size_mb[:, None]
            for i, j in zip(*np.nonzero(cost_ij > 0)):
                ledger.charge_placement_transfer(
                    float(cost_ij[i, j]),
                    store_id=int(j),
                    job_id=data_job.get(int(i)),
                )
        return bd

    # -- incremental API ------------------------------------------------------
    def begin(self) -> None:
        """Open an incremental run (resets all per-run state)."""
        tracer = self.tracer if self.tracer is not None else current_tracer()
        self.degraded_epochs = 0
        self._state: Optional[_RunState] = _RunState(
            tracer=tracer,
            ledger=CostLedger(),
            store_used_mb=np.zeros(self.cluster.num_stores),
            machine_cpu_total=np.zeros(self.cluster.num_machines),
        )

    def _require_state(self) -> _RunState:
        state = getattr(self, "_state", None)
        if state is None:
            raise RuntimeError("no run in progress — call begin() first")
        return state

    @property
    def epoch_index(self) -> int:
        """Index of the next epoch to be scheduled."""
        return self._require_state().epoch

    @property
    def clock(self) -> float:
        """Simulation time at the start of the next epoch."""
        return self._require_state().epoch * self.epoch_length

    @property
    def pending(self) -> int:
        """Queued (possibly residual) jobs waiting for the next epoch."""
        return len(self._require_state().queue)

    def submit(self, job: Job, data: Optional[DataObject] = None) -> None:
        """Enqueue one job (with a private copy of its data object).

        The job is re-pointed at a per-run data list, so callers may submit
        jobs from unrelated workloads without index collisions; ``job_id``
        must be unique within the run (it keys completion times).
        """
        state = self._require_state()
        if data is not None:
            obj = DataObject(
                data_id=len(state.data),
                name=data.name,
                size_mb=data.size_mb,
                origin_store=data.origin_store,
                block_mb=data.block_mb,
            )
            state.data.append(obj)
            job = dataclasses.replace(job, data_ids=[obj.data_id])
            origin: Optional[int] = obj.origin_store
        else:
            if job.data_ids:
                raise ValueError(
                    f"job {job.job_id} references data {job.data_ids} but no "
                    "data object was submitted with it"
                )
            origin = None
        state.queue.append(_QueueEntry(job=job, fraction=1.0, origin_store=origin))

    def skip_idle_to(self, time: float) -> None:
        """Jump the idle clock so the next epoch's start covers ``time``.

        Equivalent to iterating empty epochs one by one (the pre-jump
        behaviour) but O(1): the epoch index lands on the first boundary
        ``n`` with ``n * epoch_length >= time`` — exactly where the old
        one-epoch-at-a-time loop would have admitted the arrival.  Clamped
        to ``max_epochs`` so an out-of-range arrival still aborts loudly.
        """
        state = self._require_state()
        e = self.epoch_length
        n = int(time // e)
        if n * e < time:
            n += 1
        state.epoch = min(max(state.epoch + 1, n), self.max_epochs)

    def step(self, force_degraded: bool = False) -> Optional[EpochReport]:
        """Schedule exactly one epoch over the current queue.

        Returns the epoch's report, or ``None`` when the queue is empty (the
        clock still advances one epoch).  With ``force_degraded`` the epoch
        bypasses the LP entirely and runs the greedy degraded path — the
        health watchdog in :mod:`repro.serve` uses this to keep scheduling
        ahead of real time when LP solves lag.
        """
        # deferred: repro.resilience imports back into repro.core
        from repro.resilience.degraded import DEGRADED_MODEL

        state = self._require_state()
        if state.epoch >= self.max_epochs:
            raise RuntimeError(f"exceeded max_epochs={self.max_epochs}")
        if not state.queue:
            state.epoch += 1  # idle epoch waiting for arrivals
            return None
        e = self.epoch_length
        epoch = state.epoch
        start = epoch * e
        tracer = state.tracer
        queue = state.queue

        inp, original_ids = self._build_epoch_input(queue, state.data)
        remaining_cap = np.maximum(
            self.cluster.store_capacity_vector() - state.store_used_mb, 0.0
        )
        epoch_span = tracer.new_span_id()
        prof = lpprof.LPProfile()

        def on_solve(rec: lpprof.LPSolveRecord) -> None:
            # traced as it happens, so it precedes the epoch.degraded event
            prof(rec)
            if tracer.enabled:
                tracer.lp_solve(rec, ts=start, span_id=tracer.new_span_id(), parent=epoch_span)

        with lpprof.collect(on_solve), lpprof.scope(epoch=epoch, scheduler="epoch-controller"):
            sol = plan_epoch(
                inp, e, self.backend, scheduler="epoch-controller", tracer=tracer, ts=start,
                fields={"index": epoch, "queued": len(original_ids)},
                store_capacity=remaining_cap, force_degraded=force_degraded,
            )
        degraded = sol.model == DEGRADED_MODEL
        if degraded:
            self.degraded_epochs += 1
        bd = self._charge(state.ledger, inp, sol, original_ids)

        # machine CPU time this epoch (wall seconds of busy CPU)
        cpu_l = sol.machine_cpu_load(inp)
        state.machine_cpu_total += cpu_l
        busy_l = cpu_l / self.cluster.throughput_vector()

        # account placed data: every placed fraction occupies its store
        if inp.num_data:
            state.store_used_mb += sol.xd.T @ inp.data_size_mb

        # requeue residuals, complete the rest
        new_queue: List[_QueueEntry] = []
        scheduled = 0
        requeued = 0
        residual_total = 0.0
        for pos, entry in enumerate(queue):
            fake_frac = float(sol.fake[pos])
            done_frac = entry.fraction * (1.0 - fake_frac)
            residual = entry.fraction * fake_frac
            residual_total += residual if residual > MIN_RESIDUAL else 0.0
            if residual > MIN_RESIDUAL:
                origin = entry.origin_store
                if inp.job_data[pos] >= 0:
                    i = inp.job_data[pos]
                    placed = sol.xd[i]
                    if placed.max() > 0:
                        origin = int(np.argmax(placed))
                new_queue.append(
                    _QueueEntry(job=entry.job, fraction=residual, origin_store=origin)
                )
                requeued += 1
            else:
                # job finishes this epoch; completion = epoch start + the
                # busy time of the busiest machine running it
                if inp.job_data[pos] >= 0:
                    used = np.nonzero(sol.xt_data[pos].sum(axis=1) > MIN_RESIDUAL)[0]
                else:
                    used = np.nonzero(sol.xt_free[pos] > MIN_RESIDUAL)[0]
                finish_offset = float(busy_l[used].max()) if len(used) else 0.0
                completion = start + min(e, finish_offset) if len(used) else start
                state.job_completion[entry.job.job_id] = max(
                    completion - entry.job.arrival_time, 0.0
                )
            if done_frac > MIN_RESIDUAL:
                scheduled += 1
        state.queue = new_queue

        if tracer.enabled:
            tracer.span(
                "epoch",
                "controller-epoch",
                start,
                e,
                index=epoch,
                queued=len(original_ids),
                scheduled=scheduled,
                requeued=requeued,
                residual=residual_total,
                cost_delta=bd.real_total,
                lp_solves=prof.solves,
                lp_wall_s=prof.wall_seconds,
                span_id=epoch_span,
            )
        report = EpochReport(
            index=epoch,
            start_time=start,
            num_queued=len(original_ids),
            num_scheduled=scheduled,
            num_requeued=requeued,
            cost=bd,
            machine_cpu_seconds=cpu_l,
            lp_solves=prof.solves,
            lp_wall_seconds=prof.wall_seconds,
            degraded=degraded,
        )
        state.reports.append(report)
        state.epoch += 1
        if self.rolling_ledger is not None:
            self.rolling_ledger.fold(state.ledger)
            self.rolling_ledger.reconcile(
                state.ledger.total, tracer=tracer, ts=start, epoch=epoch
            )
        return report

    def finish(self, jobs: Sequence[Job] = ()) -> OnlineRunResult:
        """Close the run: emit the run summary and return the aggregate.

        ``jobs`` supplies arrival times for the makespan (pass every job
        submitted during the run); the incremental state is discarded.
        """
        state = self._require_state()
        makespan = 0.0
        for job in jobs:
            makespan = max(
                makespan, job.arrival_time + state.job_completion.get(job.job_id, 0.0)
            )
        tracer = state.tracer
        if tracer.enabled:
            dollars = DollarLedger.from_cost_ledger(state.ledger)
            dollars.reconcile(state.ledger.total)
            dollars.emit(tracer, makespan)
            emit_run_summary(
                tracer,
                ts=makespan,
                scheduler="epoch-controller",
                total_cost=state.ledger.total,
                makespan=makespan,
                epochs=len(state.reports),
                jobs=len(state.job_completion),
                lp_solves=sum(r.lp_solves for r in state.reports),
                lp_wall_s=sum(r.lp_wall_seconds for r in state.reports),
            )
        result = OnlineRunResult(
            reports=state.reports,
            ledger=state.ledger,
            job_completion=state.job_completion,
            makespan=makespan,
            machine_cpu_seconds=state.machine_cpu_total,
        )
        self._state = None
        return result

    # -- main loop -----------------------------------------------------------
    def run(self, workload: Workload) -> OnlineRunResult:
        """Schedule an entire workload online; returns the aggregate result."""
        self.begin()
        state = self._require_state()
        arrivals = sorted(workload.jobs, key=lambda j: (j.arrival_time, j.job_id))
        next_arrival = 0

        while next_arrival < len(arrivals) or state.queue:
            if state.epoch >= self.max_epochs:
                raise RuntimeError(f"exceeded max_epochs={self.max_epochs}")
            start = state.epoch * self.epoch_length
            # Jobs that have arrived by the start of this epoch join the queue.
            while next_arrival < len(arrivals) and arrivals[next_arrival].arrival_time <= start:
                job = arrivals[next_arrival]
                self.submit(
                    job, workload.data[job.data_ids[0]] if job.data_ids else None
                )
                next_arrival += 1

            if not state.queue:
                # sparse arrivals: jump straight to the next arrival's epoch
                # instead of spinning through empty epochs one at a time
                self.skip_idle_to(arrivals[next_arrival].arrival_time)
                continue
            self.step()
        return self.finish(workload.jobs)
