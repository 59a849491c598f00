"""Post-run invariants: what must hold no matter which faults were injected.

A chaos soak is only as good as its oracle.  These checks encode the
properties that every run — faulted or not, LP-scheduled or degraded —
must satisfy:

* **task conservation** — every task of every job completed exactly once
  (re-queued work was eventually re-run, nothing ran twice or vanished);
* **no lost blocks** — every HDFS block still has at least one replica on
  a valid store;
* **billing consistency** — the ledger's total equals the sum over
  categories, every charge is non-negative, and nothing was charged for
  free (failures bill burned cycles, so a faulted run's total is >= 0 but
  the ledger must stay internally consistent);
* **queue never leaks** — at the end of the run no job is still pending
  and no tracker holds a running attempt;
* **fraction conservation** (online controller) — scheduled CPU seconds
  across epochs equal the workload's total (residual re-queueing neither
  duplicates nor drops work).

The service (:mod:`repro.serve`) adds its own properties on top:

* **admission partition** — every offered job is accounted exactly once:
  ``submitted == admitted + shed`` and the per-reason shed counts sum to
  the shed total (the only way to lose a job is an explicit, reasoned
  shed);
* **completion accounting** — every admitted job either completed or is
  still pending in the final backlog (``admitted == completed + pending``);
* **degraded accounting** — the controller's degraded-epoch counter equals
  the number of degraded epoch reports;
* **watchdog engagement** — when LP epochs missed their deadline at least
  ``miss_threshold`` times, the health machine must have moved to
  DEGRADED at least once (the watchdog may never sleep through its pager).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class InvariantViolation:
    """One failed invariant with enough detail to debug the run."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


def check_sim_invariants(sim) -> List[InvariantViolation]:
    """Check a finished :class:`~repro.hadoop.sim.HadoopSimulator` run."""
    out: List[InvariantViolation] = []

    # task conservation: every task completed exactly once
    for job in sim.jobtracker.jobs.values():
        if job.completed_maps != len(job.tasks):
            out.append(
                InvariantViolation(
                    "task_conservation",
                    f"job {job.job.name!r}: maps {job.completed_maps}/{len(job.tasks)} completed",
                )
            )
        if job.pending:
            out.append(
                InvariantViolation(
                    "queue_leak",
                    f"job {job.job.name!r} still has {len(job.pending)} pending tasks",
                )
            )

    # queue never leaks: no tracker still holds running attempts
    for tracker in sim.trackers:
        if tracker.running:
            out.append(
                InvariantViolation(
                    "queue_leak",
                    f"machine {tracker.machine_id} still has running attempts",
                )
            )

    # no lost blocks
    for block in sim.hdfs.blocks:
        if not block.replicas:
            out.append(
                InvariantViolation("lost_block", f"block {block.block_id} has no replicas")
            )
        for s in block.replicas:
            if not 0 <= s < sim.cluster.num_stores:
                out.append(
                    InvariantViolation(
                        "lost_block", f"block {block.block_id} references bad store {s}"
                    )
                )

    out.extend(_check_ledger(sim.metrics.ledger))
    return out


def check_online_invariants(result, workload) -> List[InvariantViolation]:
    """Check an :class:`~repro.core.epoch.OnlineRunResult`."""
    out: List[InvariantViolation] = []
    want = {job.job_id for job in workload.jobs}
    got = set(result.job_completion)
    if want != got:
        out.append(
            InvariantViolation(
                "task_conservation",
                f"jobs completed {sorted(got)} != submitted {sorted(want)}",
            )
        )
    total_cpu = workload.total_cpu_seconds()
    scheduled = float(np.sum(result.machine_cpu_seconds))
    if total_cpu > 0 and abs(scheduled - total_cpu) > 1e-4 * total_cpu:
        out.append(
            InvariantViolation(
                "fraction_conservation",
                f"scheduled {scheduled:.3f} CPU-s != workload {total_cpu:.3f} CPU-s",
            )
        )
    out.extend(_check_ledger(result.ledger))
    return out


def _check_ledger(ledger) -> List[InvariantViolation]:
    out: List[InvariantViolation] = []
    by_category = sum(ledger.total_by_category().values())
    if abs(ledger.total - by_category) > 1e-9 * max(1.0, abs(ledger.total)):
        out.append(
            InvariantViolation(
                "billing_consistency",
                f"ledger total {ledger.total!r} != category sum {by_category!r}",
            )
        )
    negative = [r for r in ledger.records if r.amount < 0]
    if negative:
        out.append(
            InvariantViolation(
                "billing_consistency", f"{len(negative)} negative ledger charges"
            )
        )
    return out


def check_service_invariants(
    service, result=None, expected_misses: Optional[int] = None
) -> List[InvariantViolation]:
    """Check a finished (or recovered) :class:`~repro.serve.SchedulingService`.

    ``result`` is the :class:`~repro.core.epoch.OnlineRunResult` from
    :meth:`~repro.serve.SchedulingService.result` when the run was closed;
    pass ``None`` to check a still-open service (completion accounting then
    uses the live controller state).  ``expected_misses`` at or above the
    health machine's ``miss_threshold`` additionally requires a DEGRADED
    transition (lag-injection soaks pass their deadline-miss count).
    """
    from repro.serve.health import ServiceState

    out: List[InvariantViolation] = []
    admission = service.admission

    shed_by_reason = sum(admission.shed.values())
    if shed_by_reason != admission.shed_total:
        out.append(
            InvariantViolation(
                "admission_partition",
                f"per-reason shed counts sum to {shed_by_reason}, "
                f"shed_total says {admission.shed_total}",
            )
        )
    if admission.submitted != admission.admitted + admission.shed_total:
        out.append(
            InvariantViolation(
                "admission_partition",
                f"submitted {admission.submitted} != admitted {admission.admitted} "
                f"+ shed {admission.shed_total}",
            )
        )
    if admission.admitted != len(service.admitted_arrivals):
        out.append(
            InvariantViolation(
                "admission_partition",
                f"admission counted {admission.admitted} admitted jobs but the "
                f"service tracked {len(service.admitted_arrivals)}",
            )
        )

    if result is not None:
        completed, pending = len(result.job_completion), 0
        ledger, reports = result.ledger, result.reports
    else:
        state = service.controller._require_state()
        completed, pending = len(state.job_completion), len(state.queue)
        ledger, reports = state.ledger, state.reports
    if admission.admitted != completed + pending:
        out.append(
            InvariantViolation(
                "completion_accounting",
                f"admitted {admission.admitted} != completed {completed} "
                f"+ pending {pending}",
            )
        )

    out.extend(_check_ledger(ledger))

    degraded_seen = sum(1 for r in reports if r.degraded)
    if degraded_seen != service.controller.degraded_epochs:
        out.append(
            InvariantViolation(
                "degraded_accounting",
                f"{degraded_seen} degraded reports vs counter "
                f"{service.controller.degraded_epochs}",
            )
        )

    if expected_misses is not None and expected_misses >= service.config.health.miss_threshold:
        if not any(t.dst is ServiceState.DEGRADED for t in service.health.transitions):
            out.append(
                InvariantViolation(
                    "watchdog_engagement",
                    f"{expected_misses} deadline misses but no DEGRADED transition",
                )
            )
    return out
