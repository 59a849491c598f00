"""repro.serve: the crash-tolerant continuous scheduling service.

Promotes the batch :class:`~repro.core.epoch.EpochController` into a
long-running service (DESIGN.md §12):

* :mod:`~repro.serve.admission` — bounded queue, sim-time token bucket and
  deterministic load shedding with full shed accounting;
* :mod:`~repro.serve.health` — the HEALTHY/DEGRADED/SHEDDING/RECOVERING
  watchdog that flips LP scheduling onto the greedy degraded path before
  the schedule falls behind real time;
* :mod:`~repro.serve.journal` — write-ahead log + periodic snapshots;
* :mod:`~repro.serve.service` — :class:`SchedulingService` itself, with
  crash recovery that replays the WAL suffix deterministically;
* :mod:`~repro.serve.soak` — :func:`~repro.serve.soak.drive_service`, the
  closed loop that feeds a service an arrival schedule.

The ``python -m repro serve --sim`` soak — hours of sim time, chaos
windows, mid-run kill/recover cycles — is the service target of the one
soak driver, :mod:`repro.resilience.soak`, and the service's oracle
(admission partition, completion accounting, watchdog engagement) lives
with the others in :mod:`repro.resilience.invariants`.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.health import HealthConfig, HealthMonitor, ServiceState
from repro.serve.journal import WriteAheadLog, read_wal
from repro.serve.service import (
    RecoveryError,
    ReplayStats,
    SchedulingService,
    ServiceConfig,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "HealthConfig",
    "HealthMonitor",
    "ServiceState",
    "WriteAheadLog",
    "read_wal",
    "RecoveryError",
    "ReplayStats",
    "SchedulingService",
    "ServiceConfig",
]
