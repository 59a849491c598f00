"""Feed a :class:`~repro.serve.service.SchedulingService` an arrival schedule.

:func:`drive_service` is the closed loop every driver of the service
shares — the soak's service target (:mod:`repro.resilience.soak`, behind
``python -m repro serve --sim``) and the benchmark's serve workload:
submit what has arrived, ``tick()``, ``advance_to()`` the next arrival
when idle.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.serve.service import SchedulingService
from repro.workload.job import DataObject, Job


def drive_service(
    service: SchedulingService,
    schedule: Sequence[Tuple[float, Job]],
    data_by_job: Dict[int, DataObject],
    start_index: int = 0,
    stop_after_ticks: Optional[int] = None,
) -> int:
    """Pump arrivals and scheduler ticks until drained (or a tick budget).

    Returns the next unoffered schedule index (``len(schedule)`` when every
    arrival was offered).  Resuming after recovery passes
    ``service.admission.submitted`` as ``start_index`` — every offer is
    journaled, so the counter *is* the resume cursor.
    """
    i = start_index
    while True:
        if stop_after_ticks is not None and service.epochs_ticked >= stop_after_ticks:
            return i
        now = service.clock
        while i < len(schedule) and schedule[i][0] <= now:
            job = schedule[i][1]
            service.submit(job, data_by_job.get(job.job_id))
            i += 1
        if service.backlog == 0:
            if i >= len(schedule):
                return i
            service.advance_to(schedule[i][0])
            continue
        service.tick()
