"""The scheduling service: admission, watchdog, journaling, recovery.

:class:`SchedulingService` turns the batch :class:`~repro.core.epoch.
EpochController` into a long-running process.  Per tick it (1) lets the
health machine pick LP or greedy scheduling, (2) runs exactly one epoch,
(3) measures LP lag against the epoch deadline, journals the tick and folds
the verdict back into the health machine, and (4) periodically snapshots.
Jobs enter only through :meth:`submit`, which applies admission control and
journals the decision before it takes effect.

Crash model and recovery
------------------------
The process may die at any instant.  Everything externally visible is in
the WAL (flushed per record) or a snapshot, so :meth:`recover` rebuilds an
equivalent service: load the newest snapshot, then *re-execute* the WAL
suffix — admissions re-run the deterministic admission policy (the
journaled decision is asserted, a built-in divergence check) and epochs
re-run :meth:`EpochController.step` with the journaled LP/greedy choice and
the journaled deadline verdict (wall time is never re-measured).  Because
LP solves are deterministic, the re-executed suffix reproduces the original
charges; each replayed epoch's cost delta is reconciled against the journal
within :data:`LEDGER_TOLERANCE` and any drift aborts recovery loudly.

Replay determinism contract: the backend's behaviour must be a function of
the epoch *input* (clock-keyed fault windows are fine), not of solve count
or wall time — a count-keyed fault schedule would diverge between the
original run and the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.cluster.builder import Cluster
from repro.core.epoch import EpochController, EpochReport, OnlineRunResult, _QueueEntry
from repro.core.solution import CostBreakdown
from repro.obs.ledger import RollingLedger
from repro.obs.registry import MetricsRegistry, current_registry, use_registry
from repro.obs.trace import NULL_TRACER, BufferedTracer, current_tracer
from repro.serve.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.serve.health import HealthConfig, HealthMonitor, SLOTracker
from repro.serve.journal import (
    REC_ADMISSION,
    REC_ADVANCE,
    REC_EPOCH,
    REC_RECOVERED,
    REC_SNAPSHOT,
    REC_START,
    WriteAheadLog,
    data_from_dict,
    data_to_dict,
    job_from_dict,
    job_to_dict,
    ledger_from_dicts,
    ledger_to_dicts,
    load_latest_snapshot,
    read_wal,
    write_snapshot,
)
from repro.workload.job import DataObject, Job

#: Max |replayed - journaled| per-epoch cost delta before recovery aborts.
LEDGER_TOLERANCE = 1e-9

PathLike = Union[str, Path]


class RecoveryError(RuntimeError):
    """Replay diverged from the journal (determinism contract broken)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance (journaled in the ``start`` record)."""

    epoch_length: float = 60.0
    #: admission: bounded-queue depth and token-bucket shape
    max_pending: int = 256
    rate_per_s: float = 0.0
    burst: float = 8.0
    #: epochs between snapshots (0 disables checkpointing)
    checkpoint_every: int = 16
    health: HealthConfig = field(default_factory=HealthConfig)
    wal_fsync: bool = True
    max_epochs: int = 1000000

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready echo for the WAL ``start`` record."""
        return {
            "epoch_length": self.epoch_length,
            "max_pending": self.max_pending,
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "checkpoint_every": self.checkpoint_every,
            "epoch_deadline_s": self.health.epoch_deadline_s,
            "wal_fsync": self.wal_fsync,
        }


@dataclass
class ReplayStats:
    """What recovery did, for reporting and gating."""

    snapshot_seq: int = -1
    records_replayed: int = 0
    admissions_replayed: int = 0
    epochs_replayed: int = 0
    max_cost_drift: float = 0.0


def _report_to_dict(report: EpochReport) -> Dict[str, Any]:
    """Snapshot form of one epoch report."""
    return {
        "index": report.index,
        "start_time": report.start_time,
        "num_queued": report.num_queued,
        "num_scheduled": report.num_scheduled,
        "num_requeued": report.num_requeued,
        "cost": {
            "placement_transfer": report.cost.placement_transfer,
            "execution": report.cost.execution,
            "runtime_transfer": report.cost.runtime_transfer,
            "fake": report.cost.fake,
        },
        "machine_cpu_seconds": [float(v) for v in report.machine_cpu_seconds],
        "lp_solves": report.lp_solves,
        "lp_wall_seconds": report.lp_wall_seconds,
        "degraded": report.degraded,
    }


def _report_from_dict(payload: Dict[str, Any]) -> EpochReport:
    """Rebuild one epoch report from its snapshot form."""
    return EpochReport(
        index=int(payload["index"]),
        start_time=float(payload["start_time"]),
        num_queued=int(payload["num_queued"]),
        num_scheduled=int(payload["num_scheduled"]),
        num_requeued=int(payload["num_requeued"]),
        cost=CostBreakdown(**payload["cost"]),
        machine_cpu_seconds=np.array(payload["machine_cpu_seconds"], dtype=float),
        lp_solves=int(payload["lp_solves"]),
        lp_wall_seconds=float(payload["lp_wall_seconds"]),
        degraded=bool(payload["degraded"]),
    )


class SchedulingService:
    """A crash-tolerant continuous scheduler around ``EpochController``.

    Parameters
    ----------
    cluster:
        Target cluster.
    config:
        Service knobs (:class:`ServiceConfig`).
    wal_dir:
        Directory for the WAL and snapshots; ``None`` disables persistence
        (pure in-memory service, still fully functional).
    backend:
        LP backend forwarded to the controller.
    lag_injector:
        Optional ``epoch_index -> extra_lag_seconds`` callable added to the
        measured LP wall time before the deadline check — lets soaks inject
        *deterministic* lag (no sleeping, replay-safe).
    tracer:
        Trace emitter; ``None`` falls back to the ambient tracer.
    """

    def __init__(
        self,
        cluster: Cluster,
        config: ServiceConfig,
        wal_dir: Optional[PathLike] = None,
        backend: Optional[object] = None,
        lag_injector: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.controller = EpochController(
            cluster,
            config.epoch_length,
            backend=backend,
            max_epochs=config.max_epochs,
            tracer=tracer,
        )
        self.health = HealthMonitor(
            config=config.health,
            slo=SLOTracker(deadline_s=config.health.epoch_deadline_s),
        )
        self.admission = AdmissionController(
            max_pending=config.max_pending,
            bucket=TokenBucket(
                rate_per_s=config.rate_per_s, burst=config.burst, tokens=config.burst
            ),
        )
        self.lag_injector = lag_injector
        self.tracer = tracer
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        self.wal: Optional[WriteAheadLog] = None
        #: job_id -> arrival_time of every admitted job (drives the makespan)
        self.admitted_arrivals: Dict[int, float] = {}
        self.epochs_ticked = 0
        self._replaying = False
        self._plane = None

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> None:
        """Open the run (and the WAL, when persistence is on)."""
        if self.tracer is None:
            self.tracer = current_tracer()
        self.controller.tracer = self.tracer
        if self._plane is not None and self.tracer.enabled:
            self._plane.attach_tracer(self.tracer)
        self.controller.begin()
        if self.wal_dir is not None:
            self.wal_dir.mkdir(parents=True, exist_ok=True)
            self.wal = WriteAheadLog(
                self.wal_dir / "wal.jsonl", fsync=self.config.wal_fsync
            )
            self.wal.append(REC_START, config=self.config.to_dict())

    def result(self) -> OnlineRunResult:
        """Close the run into an aggregate result (ends the service)."""
        jobs = [
            Job(job_id=job_id, name=f"job-{job_id}", tcp=0.0, arrival_time=arrival)
            for job_id, arrival in self.admitted_arrivals.items()
        ]
        result = self.controller.finish(jobs)
        if self.wal is not None:
            self.wal.close()
        return result

    @property
    def clock(self) -> float:
        """Simulation time at the start of the next epoch."""
        return self.controller.clock

    @property
    def backlog(self) -> int:
        """Jobs queued for the next epoch."""
        return self.controller.pending

    # -- live telemetry -------------------------------------------------------
    def enable_rolling_ledger(self, tol: float = LEDGER_TOLERANCE) -> RollingLedger:
        """Reconcile dollar attribution every epoch (idempotent).

        Installs a :class:`~repro.obs.ledger.RollingLedger` on the epoch
        controller: each ``step()`` folds the epoch's new charges and checks
        the rolling cells re-sum to the authoritative running total.
        """
        if self.controller.rolling_ledger is None:
            self.controller.rolling_ledger = RollingLedger(tol=tol)
        return self.controller.rolling_ledger

    def attach_plane(self, plane) -> None:
        """Wire a :class:`~repro.obs.live.LiveTelemetryPlane` to this service.

        Enables every-epoch ledger reconciliation, installs :meth:`status`
        as the plane's /healthz status provider, and (once the tracer is
        resolved — here or at :meth:`start`) feeds the plane's trace tail.
        """
        self._plane = plane
        plane.set_rolling_ledger(self.enable_rolling_ledger())
        plane.set_status_provider(self.status)
        if self.tracer is not None and self.tracer.enabled:
            plane.attach_tracer(self.tracer)

    def status(self) -> dict:
        """Point-in-time service state for the live endpoints and `repro top`."""
        out: Dict[str, Any] = {
            "state": self.health.state.value,
            "epoch": self.controller.epoch_index,
            "epochs_ticked": self.epochs_ticked,
            "backlog": self.controller.pending,
            "clock": self.controller.clock,
            "transitions": len(self.health.transitions),
            "admission": self.admission.to_dict(),
        }
        if self.health.slo is not None:
            out["slo"] = self.health.slo.to_dict()
        return out

    # -- admission -----------------------------------------------------------
    def submit(self, job: Job, data: Optional[DataObject] = None) -> AdmissionDecision:
        """Offer one job; journal the decision, then apply it."""
        now = self.controller.clock
        decision = self.admission.offer(
            job,
            now,
            backlog=self.controller.pending,
            shedding=self.health.shedding,
            tracer=self.tracer,
        )
        self._journal(
            REC_ADMISSION,
            job=job_to_dict(job),
            data=data_to_dict(data) if data is not None else None,
            admitted=decision.admitted,
            reason=decision.reason,
            ts=now,
        )
        if decision.admitted:
            self.controller.submit(job, data)
            self.admitted_arrivals[job.job_id] = job.arrival_time
        return decision

    # -- the tick ------------------------------------------------------------
    def tick(self) -> Optional[EpochReport]:
        """Schedule one epoch under watchdog control; returns its report.

        The epoch's trace spans are buffered during ``step()`` and only
        hit the trace sink *after* the ``epoch`` WAL record is durable:
        the journal-before-acting contract extends to the trace file, so
        a crash inside the tick never leaves a span in the pre-crash
        trace that recovery (which replays the WAL under a null tracer)
        would re-execute and re-emit as a duplicate.
        """
        epoch = self.controller.epoch_index
        use_lp = self.health.plan_epoch()
        state = self.controller._require_state()
        live_tracer = state.tracer
        buffer = BufferedTracer(live_tracer)
        state.tracer = buffer
        try:
            report = self.controller.step(force_degraded=not use_lp)
        finally:
            state.tracer = live_tracer
        lag = 0.0
        if report is not None:
            lag = report.lp_wall_seconds
            if self.lag_injector is not None:
                lag += float(self.lag_injector(epoch))
        attempted_lp = use_lp and report is not None
        # a degraded report under attempted LP means the solver chain failed
        # outright — that counts as a deadline miss for the watchdog
        missed = attempted_lp and (report.degraded or lag > self.config.health.epoch_deadline_s)
        self._journal(
            REC_EPOCH,
            index=epoch,
            queued=report.num_queued if report is not None else 0,
            used_lp=attempted_lp,
            missed=missed,
            degraded=report.degraded if report is not None else False,
            cost_delta=report.cost.real_total if report is not None else 0.0,
            lag_s=lag,
            backlog=self.controller.pending,
        )
        # the epoch record is on disk: its trace spans may now be emitted
        buffer.flush()
        self._observe(epoch, used_lp=attempted_lp, missed=missed, lag_s=lag)
        self.epochs_ticked += 1
        if (
            report is not None
            and self.wal is not None
            and not self._replaying
            and self.config.checkpoint_every > 0
            and self.epochs_ticked % self.config.checkpoint_every == 0
        ):
            self.checkpoint()
        return report

    def advance_to(self, time: float) -> None:
        """Jump the idle clock to cover ``time`` (queue must be empty)."""
        if self.controller.pending:
            raise RuntimeError("cannot jump the clock over a non-empty queue")
        self.controller.skip_idle_to(time)
        self._journal(REC_ADVANCE, epoch=self.controller.epoch_index)

    def _observe(
        self, epoch: int, used_lp: bool, missed: bool, lag_s: float = 0.0
    ) -> None:
        """Fold one epoch's verdict into the health machine + metrics."""
        self.health.observe_epoch(
            epoch,
            used_lp=used_lp,
            missed=missed,
            backlog=self.controller.pending,
            tracer=self.tracer,
            ts=self.controller.clock,
            lag_s=lag_s,
        )
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "service_epochs_total", help="service scheduler ticks by mode"
            ).inc(lp=str(used_lp).lower())
            registry.gauge(
                "service_backlog", help="jobs queued for the next epoch"
            ).set(self.controller.pending)
            if missed:
                registry.counter(
                    "epoch_deadline_misses_total",
                    help="epochs whose LP lag blew the deadline budget",
                ).inc()

    def _journal(self, rec_type: str, **payload: Any) -> None:
        if self.wal is not None and not self._replaying:
            self.wal.append(rec_type, **payload)

    # -- checkpoint / recovery -----------------------------------------------
    def checkpoint(self) -> Optional[Path]:
        """Write a snapshot as of the WAL head; returns its path."""
        if self.wal is None:
            return None
        seq = self.wal.append(REC_SNAPSHOT, epoch=self.controller.epoch_index)
        return write_snapshot(self.wal_dir, seq, self._snapshot_state())

    def _snapshot_state(self) -> Dict[str, Any]:
        state = self.controller._require_state()
        return {
            "epoch": state.epoch,
            "store_used_mb": [float(v) for v in state.store_used_mb],
            "machine_cpu_total": [float(v) for v in state.machine_cpu_total],
            "job_completion": {str(k): v for k, v in state.job_completion.items()},
            "queue": [
                {
                    "job": job_to_dict(entry.job),
                    "fraction": entry.fraction,
                    "origin_store": entry.origin_store,
                }
                for entry in state.queue
            ],
            "data": [data_to_dict(obj) for obj in state.data],
            "ledger": ledger_to_dicts(state.ledger),
            "reports": [_report_to_dict(r) for r in state.reports],
            "admission": self.admission.to_dict(),
            "health": self.health.to_dict(),
            "admitted_arrivals": {
                str(k): v for k, v in self.admitted_arrivals.items()
            },
            "degraded_epochs": self.controller.degraded_epochs,
            "epochs_ticked": self.epochs_ticked,
        }

    def _restore_snapshot(self, payload: Dict[str, Any]) -> None:
        state = self.controller._require_state()
        state.epoch = int(payload["epoch"])
        state.store_used_mb = np.array(payload["store_used_mb"], dtype=float)
        state.machine_cpu_total = np.array(payload["machine_cpu_total"], dtype=float)
        state.job_completion = {
            int(k): float(v) for k, v in payload["job_completion"].items()
        }
        state.queue = [
            _QueueEntry(
                job=job_from_dict(entry["job"]),
                fraction=float(entry["fraction"]),
                origin_store=entry["origin_store"],
            )
            for entry in payload["queue"]
        ]
        state.data = [data_from_dict(obj) for obj in payload["data"]]
        state.ledger = ledger_from_dicts(payload["ledger"])
        state.reports = [_report_from_dict(r) for r in payload["reports"]]
        self.admission = AdmissionController.from_dict(payload["admission"])
        self.health = HealthMonitor.from_dict(payload["health"], config=self.config.health)
        # the SLO window is observational, not part of the snapshot schema:
        # it restarts empty and refills from the replayed WAL suffix onward
        self.health.slo = SLOTracker(deadline_s=self.config.health.epoch_deadline_s)
        self.admitted_arrivals = {
            int(k): float(v) for k, v in payload["admitted_arrivals"].items()
        }
        self.controller.degraded_epochs = int(payload["degraded_epochs"])
        self.epochs_ticked = int(payload["epochs_ticked"])

    @classmethod
    def recover(
        cls,
        cluster: Cluster,
        config: ServiceConfig,
        wal_dir: PathLike,
        backend: Optional[object] = None,
        lag_injector: Optional[object] = None,
        tracer: Optional[object] = None,
    ) -> Tuple["SchedulingService", ReplayStats]:
        """Rebuild a service from its WAL directory after a crash.

        Loads the newest snapshot, re-executes the WAL suffix (asserting
        the journaled decisions and per-epoch cost deltas), reopens the
        WAL and appends a ``recovered`` record.  Raises
        :class:`RecoveryError` on any divergence.
        """
        wal_dir = Path(wal_dir)
        wal_path = wal_dir / "wal.jsonl"
        if not wal_path.exists():
            raise RecoveryError(f"no WAL at {wal_path}")
        records = read_wal(wal_path)
        service = cls(
            cluster,
            config,
            wal_dir=None,
            backend=backend,
            lag_injector=lag_injector,
            tracer=tracer,
        )
        if service.tracer is None:
            service.tracer = current_tracer()
        live_tracer = service.tracer
        # replay must not re-emit trace records the pre-crash run already
        # wrote: the post-recovery trace is a pure suffix
        service.tracer = NULL_TRACER
        service.controller.tracer = NULL_TRACER
        service.controller.begin()
        stats = ReplayStats()
        snapshot = load_latest_snapshot(wal_dir)
        if snapshot is not None:
            payload, _ = snapshot
            service._restore_snapshot(payload)
            stats.snapshot_seq = int(payload["wal_seq"])
        service._replaying = True
        try:
            # like the tracer, the live metrics registry must see the
            # replayed suffix exactly zero times — the pre-crash process
            # already counted it (and the snapshot restores the admission
            # counters) — so replay observes into a discarded scratch
            # registry instead of incrementing the ambient one again
            with use_registry(MetricsRegistry()):
                for record in records:
                    if int(record["seq"]) <= stats.snapshot_seq:
                        continue
                    service._replay_record(record, stats)
        finally:
            service._replaying = False
        service.tracer = live_tracer
        service.controller.tracer = live_tracer
        service.controller._require_state().tracer = live_tracer
        service.wal_dir = wal_dir
        service.wal = WriteAheadLog(wal_path, fsync=config.wal_fsync)
        service.wal.append(
            REC_RECOVERED,
            snapshot_seq=stats.snapshot_seq,
            replayed=stats.records_replayed,
            max_cost_drift=stats.max_cost_drift,
        )
        if service.tracer is not None and service.tracer.enabled:
            service.tracer.event(
                "service",
                "recovered",
                service.controller.clock,
                snapshot_seq=stats.snapshot_seq,
                replayed=stats.records_replayed,
            )
        return service, stats

    def _replay_record(self, record: Dict[str, Any], stats: ReplayStats) -> None:
        rec_type = record["type"]
        if rec_type in (REC_START, REC_SNAPSHOT, REC_RECOVERED):
            return
        stats.records_replayed += 1
        if rec_type == REC_ADMISSION:
            job = job_from_dict(record["job"])
            data = data_from_dict(record["data"]) if record["data"] is not None else None
            decision = self.admission.offer(
                job,
                float(record["ts"]),
                backlog=self.controller.pending,
                shedding=self.health.shedding,
                tracer=None,
            )
            if decision.admitted != bool(record["admitted"]):
                raise RecoveryError(
                    f"admission replay diverged for job {job.job_id}: journal says "
                    f"admitted={record['admitted']}, replay says {decision.admitted}"
                )
            if decision.admitted:
                self.controller.submit(job, data)
                self.admitted_arrivals[job.job_id] = job.arrival_time
            stats.admissions_replayed += 1
        elif rec_type == REC_ADVANCE:
            self.controller._require_state().epoch = int(record["epoch"])
        elif rec_type == REC_EPOCH:
            epoch = self.controller.epoch_index
            if epoch != int(record["index"]):
                raise RecoveryError(
                    f"epoch replay diverged: journal at index {record['index']}, "
                    f"controller at {epoch}"
                )
            report = self.controller.step(force_degraded=not record["used_lp"])
            cost_delta = report.cost.real_total if report is not None else 0.0
            drift = abs(cost_delta - float(record["cost_delta"]))
            stats.max_cost_drift = max(stats.max_cost_drift, drift)
            if drift > LEDGER_TOLERANCE:
                raise RecoveryError(
                    f"ledger reconciliation failed at epoch {epoch}: replayed cost "
                    f"delta {cost_delta!r} vs journaled {record['cost_delta']!r} "
                    f"(drift {drift:.3e} > {LEDGER_TOLERANCE:.0e})"
                )
            degraded = report.degraded if report is not None else False
            if degraded != bool(record["degraded"]):
                raise RecoveryError(
                    f"degraded flag diverged at epoch {epoch}: replay={degraded}, "
                    f"journal={record['degraded']}"
                )
            self._observe(
                epoch,
                used_lp=bool(record["used_lp"]),
                missed=bool(record["missed"]),
                # the journaled lag, never a re-measured one — the replayed
                # SLO window must match what the pre-crash watchdog saw
                lag_s=float(record.get("lag_s", 0.0)),
            )
            self.epochs_ticked += 1
            stats.epochs_replayed += 1
        else:
            raise RecoveryError(f"unknown WAL record type {rec_type!r}")
