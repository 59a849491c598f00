"""Benchmark application profiles — paper Tables I and IV.

Table I characterises each application by equivalent-CPU-seconds per 64 MB
input block:

======  ========  ==========
app     property  CPU-s/64MB
======  ========  ==========
grep        I/O        20
stress1     I/O        37
stress2     mixed      75
wordcount   CPU        90
pi          CPU         ∞ (no input)
======  ========  ==========

Table IV defines the nine-job workload of the 20-node experiments:
J1-2 Pi (4 tasks each), J3-4 WordCount (160 tasks, 10 GB each),
J5-7 Grep (320 tasks, 20 GB each), J8-9 Stress2 (160 tasks, 10 GB each) —
1608 map tasks and 100 GB in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.storage import BLOCK_MB
from repro.workload.job import DataObject, Job, Workload

#: CPU-seconds one Pi-estimator task burns (1e9 samples; calibrated so the
#: Table IV Pi jobs are small but strictly CPU-bound, matching "job size 4").
PI_TASK_CPU_SECONDS: float = 300.0


@dataclass(frozen=True)
class AppProfile:
    """A benchmark application's scheduling-relevant profile.

    ``cpu_per_block`` is Table I's equivalent-CPU-seconds per 64 MB block;
    ``None`` marks the input-less Pi estimator (the table's ∞ entry).
    """

    name: str
    kind: str  # "I/O", "Mixed", or "CPU"
    cpu_per_block: Optional[float]

    @property
    def tcp(self) -> float:
        """``TCP`` in CPU-seconds per MB (0 for input-less jobs)."""
        if self.cpu_per_block is None:
            return 0.0
        return self.cpu_per_block / BLOCK_MB

    @property
    def is_input_less(self) -> bool:
        """True for the Pi estimator (no input data)."""
        return self.cpu_per_block is None


#: Paper Table I verbatim.
APP_PROFILES: Dict[str, AppProfile] = {
    "grep": AppProfile(name="grep", kind="I/O", cpu_per_block=20.0),
    "stress1": AppProfile(name="stress1", kind="I/O", cpu_per_block=37.0),
    "stress2": AppProfile(name="stress2", kind="Mixed", cpu_per_block=75.0),
    "wordcount": AppProfile(name="wordcount", kind="CPU", cpu_per_block=90.0),
    "pi": AppProfile(name="pi", kind="CPU", cpu_per_block=None),
}


def app_profile(name: str) -> AppProfile:
    """Look up a Table I profile; raises KeyError with known names."""
    try:
        return APP_PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown app {name!r}; known: {sorted(APP_PROFILES)}") from None


def table1_rows() -> List[Tuple[str, str, str]]:
    """Rows of paper Table I: (app, property, CPU-s per 64 MB)."""
    rows = []
    for prof in APP_PROFILES.values():
        cpu = "inf" if prof.cpu_per_block is None else f"{prof.cpu_per_block:g}"
        rows.append((prof.name, prof.kind, cpu))
    return rows


def make_job(
    app: str,
    job_id: int,
    data_ids: Optional[List[int]] = None,
    num_tasks: int = 1,
    arrival_time: float = 0.0,
    pool: str = "default",
    name: Optional[str] = None,
) -> Job:
    """Instantiate a (map-only) job from a Table I application profile."""
    prof = app_profile(app)
    if prof.is_input_less:
        if data_ids:
            raise ValueError(f"{app} takes no input data")
        return Job(
            job_id=job_id,
            name=name or f"{app}-{job_id}",
            tcp=0.0,
            data_ids=[],
            num_tasks=num_tasks,
            cpu_seconds_noinput=PI_TASK_CPU_SECONDS * num_tasks,
            arrival_time=arrival_time,
            pool=pool,
            app=app,
        )
    if not data_ids:
        raise ValueError(f"{app} requires input data")
    return Job(
        job_id=job_id,
        name=name or f"{app}-{job_id}",
        tcp=prof.tcp,
        data_ids=list(data_ids),
        num_tasks=num_tasks,
        arrival_time=arrival_time,
        pool=pool,
        app=app,
    )


#: Table IV parameters: (app, count, tasks/job, input GB/job).
_TABLE4_SPEC: List[Tuple[str, int, int, float]] = [
    ("pi", 2, 4, 0.0),
    ("wordcount", 2, 160, 10.0),
    ("grep", 3, 320, 20.0),
    ("stress2", 2, 160, 10.0),
]


def table4_jobs(origin_stores: Optional[List[int]] = None) -> Workload:
    """Build the nine-job Table IV workload (J1–J9; 1608 maps, 100 GB).

    ``origin_stores`` optionally assigns each data object's initial location
    (round-robin over the list); default places everything on store 0, the
    pre-population being re-decided by the co-scheduler or the HDFS placement
    policy anyway.
    """
    origins = origin_stores or [0]
    jobs: List[Job] = []
    data: List[DataObject] = []
    jid = 0
    for app, count, tasks, input_gb in _TABLE4_SPEC:
        for _ in range(count):
            if input_gb == 0.0:
                jobs.append(make_job(app, jid, num_tasks=tasks, name=f"J{jid + 1}-{app}"))
            else:
                d = DataObject(
                    data_id=len(data),
                    name=f"input-J{jid + 1}",
                    size_mb=input_gb * 1024.0,
                    origin_store=origins[len(data) % len(origins)],
                )
                data.append(d)
                jobs.append(
                    make_job(app, jid, data_ids=[d.data_id], num_tasks=tasks, name=f"J{jid + 1}-{app}")
                )
            jid += 1
    return Workload(jobs=jobs, data=data)
