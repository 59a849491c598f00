"""Jobs, tasks and data objects (``J``, ``D`` of the paper's notation).

A MapReduce job is characterised, for scheduling purposes, by:

* the data objects it reads (rows of the ``JD`` matrix);
* its computation throughput ``TCP`` in equivalent-CPU-seconds per MB;
* its division into near-identical tasks, each targeting one data segment.

The paper expresses CPU intensity per 64 MB block (Table I); helpers convert
between per-block and per-MB forms.  A job with no input (the Pi estimator)
has ``cpu_seconds_total`` set directly and an empty data list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.cluster.storage import BLOCK_MB
from repro.util import round_half_up


@dataclass
class DataObject:
    """A data object ``D_i``: a named byte blob split into HDFS blocks.

    ``origin_store`` is ``O_i`` — where the object initially lives before any
    co-scheduled re-placement.
    """

    data_id: int
    name: str
    size_mb: float
    origin_store: int
    block_mb: float = BLOCK_MB

    def __post_init__(self) -> None:
        if self.size_mb < 0:
            raise ValueError(f"data {self.name!r}: size must be >= 0")
        if self.block_mb <= 0:
            raise ValueError(f"data {self.name!r}: block size must be > 0")

    @property
    def num_blocks(self) -> int:
        """Number of HDFS blocks (ceil)."""
        if self.size_mb == 0:
            return 0
        return int(-(-self.size_mb // self.block_mb))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataObject({self.name!r}, {self.size_mb:g} MB @S{self.origin_store})"


@dataclass
class Task:
    """One map task: a slice of a job targeting one data segment."""

    task_id: int
    job_id: int
    data_id: Optional[int]
    input_mb: float
    cpu_seconds: float

    def __post_init__(self) -> None:
        if self.input_mb < 0 or self.cpu_seconds < 0:
            raise ValueError("task input and cpu_seconds must be >= 0")


@dataclass
class Job:
    """A MapReduce job ``J_k``.

    Attributes
    ----------
    tcp:
        ``TCP(J)`` — equivalent-CPU-seconds required per MB of input.  For
    input-less jobs (Pi) this is conceptually infinite; such jobs set
        ``tcp = 0`` and carry their demand in ``cpu_seconds_noinput``.
    data_ids:
        The data objects the job accesses (``JD`` row support).
    num_tasks:
        Number of map tasks the job splits into.
    arrival_time:
        Submission time in seconds (0 in the offline models).
    pool:
        Pool name (user/class) that :mod:`repro.core.fairness` groups jobs by.
    read_fraction:
        Fraction of each accessed data object the job actually reads — the
        paper's partial-access extension ("fractional values in JD_ij").
        1.0 (default) is the paper's main binary-JD setting.
    """

    job_id: int
    name: str
    tcp: float
    data_ids: List[int] = field(default_factory=list)
    num_tasks: int = 1
    cpu_seconds_noinput: float = 0.0
    arrival_time: float = 0.0
    pool: str = "default"
    app: str = "custom"
    priority: int = 0
    read_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.tcp < 0:
            raise ValueError(f"job {self.name!r}: tcp must be >= 0")
        if self.num_tasks < 1:
            raise ValueError(f"job {self.name!r}: needs at least one task")
        if self.cpu_seconds_noinput < 0:
            raise ValueError(f"job {self.name!r}: cpu_seconds_noinput must be >= 0")
        if not 0.0 < self.read_fraction <= 1.0:
            raise ValueError(f"job {self.name!r}: read_fraction must be in (0, 1]")

    @property
    def has_input(self) -> bool:
        """True when the job reads any data object."""
        return bool(self.data_ids)

    def total_input_mb(self, data: Sequence[DataObject]) -> float:
        """Total MB of the data objects this job accesses (full sizes)."""
        return sum(data[d].size_mb for d in self.data_ids)

    def total_read_mb(self, data: Sequence[DataObject]) -> float:
        """MB the job actually reads (``read_fraction`` of each object)."""
        return self.read_fraction * self.total_input_mb(data)

    def total_cpu_seconds(self, data: Sequence[DataObject]) -> float:
        """``CPU(J)`` — total equivalent-CPU-seconds the job needs.

        CPU demand scales with bytes actually read (partial accesses do
        proportionally less work).
        """
        return self.tcp * self.total_read_mb(data) + self.cpu_seconds_noinput

    def cpu_seconds_for(self, data_obj: DataObject) -> float:
        """CPU demand attributable to one of the job's data objects."""
        if data_obj.data_id not in self.data_ids:
            raise ValueError(f"job {self.name!r} does not access {data_obj.name!r}")
        return self.tcp * data_obj.size_mb

    def split_into_tasks(self, data: Sequence[DataObject]) -> List[Task]:
        """Split the job into ``num_tasks`` identical tasks.

        MapReduce tasks are near-identical and sized by their target data
        segment; we divide input and CPU demand evenly, which matches the
        paper's "task relative running times are proportional to their
        target data segment sizes".
        """
        tasks: List[Task] = []
        if not self.has_input:
            per_task = self.cpu_seconds_noinput / self.num_tasks
            for t in range(self.num_tasks):
                tasks.append(
                    Task(task_id=t, job_id=self.job_id, data_id=None, input_mb=0.0, cpu_seconds=per_task)
                )
            return tasks
        total_mb = self.total_input_mb(data)
        per_task_mb = total_mb / self.num_tasks
        per_task_cpu = self.tcp * per_task_mb + self.cpu_seconds_noinput / self.num_tasks
        # Assign tasks to data objects proportionally to object size.
        remaining = {d: data[d].size_mb for d in self.data_ids}
        order = sorted(remaining, key=lambda d: -remaining[d])
        t = 0
        for d in order:
            n_here = max(1, round_half_up(self.num_tasks * data[d].size_mb / total_mb)) if total_mb else 1
            for _ in range(n_here):
                if t >= self.num_tasks:
                    break
                tasks.append(
                    Task(task_id=t, job_id=self.job_id, data_id=d, input_mb=per_task_mb, cpu_seconds=per_task_cpu)
                )
                t += 1
        while t < self.num_tasks:  # rounding remainder → largest object
            tasks.append(
                Task(task_id=t, job_id=self.job_id, data_id=order[0], input_mb=per_task_mb, cpu_seconds=per_task_cpu)
            )
            t += 1
        return tasks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.name!r}, tcp={self.tcp:g} cpu-s/MB, "
            f"tasks={self.num_tasks}, data={self.data_ids})"
        )


@dataclass
class Workload:
    """A job set plus the data objects it references."""

    jobs: List[Job]
    data: List[DataObject]

    def __post_init__(self) -> None:
        ids = [d.data_id for d in self.data]
        if ids != list(range(len(ids))):
            raise ValueError("data objects must be densely indexed in order")
        jids = [j.job_id for j in self.jobs]
        if jids != list(range(len(jids))):
            raise ValueError("jobs must be densely indexed in order")
        for j in self.jobs:
            for d in j.data_ids:
                if not 0 <= d < len(self.data):
                    raise ValueError(f"job {j.name!r} references unknown data id {d}")

    @property
    def num_jobs(self) -> int:
        """Number of jobs."""
        return len(self.jobs)

    @property
    def num_data(self) -> int:
        """Number of data objects."""
        return len(self.data)

    def total_input_mb(self) -> float:
        """Total MB across all data objects."""
        return sum(d.size_mb for d in self.data)

    def total_cpu_seconds(self) -> float:
        """Total equivalent-CPU-seconds across all jobs."""
        return sum(j.total_cpu_seconds(self.data) for j in self.jobs)

    def total_tasks(self) -> int:
        """Total map tasks across all jobs."""
        return sum(j.num_tasks for j in self.jobs)

    def jobs_by_arrival(self) -> List[Job]:
        """Jobs sorted by arrival time, then id."""
        return sorted(self.jobs, key=lambda j: (j.arrival_time, j.job_id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload({self.num_jobs} jobs, {self.num_data} data objects, "
            f"{self.total_input_mb():g} MB, {self.total_tasks()} tasks)"
        )
