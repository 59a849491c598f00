"""Job-history log: per-attempt records, like Hadoop's job history files.

With ``SimConfig(record_history=True)`` the simulator appends one
:class:`AttemptRecord` per finished (or killed) attempt.  The log enables
post-hoc analysis the aggregate metrics cannot answer — who ran where and
when, how reads broke down, how failures rippled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: attempt outcomes
SUCCESS = "success"
KILLED = "killed"


@dataclass(frozen=True)
class AttemptRecord:
    """One task attempt, as it ended."""

    job_id: int
    task_index: int
    machine_id: int
    start_time: float
    finish_time: float
    read_seconds: float
    compute_seconds: float
    outcome: str
    speculative: bool = False
    source_store: Optional[int] = None
    detail: str = ""

    @property
    def duration(self) -> float:
        """Wall seconds from start to finish."""
        return self.finish_time - self.start_time


@dataclass
class JobHistory:
    """Accumulates attempt records with query helpers."""

    records: List[AttemptRecord] = field(default_factory=list)

    def add(self, record: AttemptRecord) -> None:
        """Append one attempt record."""
        self.records.append(record)

    # -- queries -------------------------------------------------------------
    def for_job(self, job_id: int) -> List[AttemptRecord]:
        """All records of one job."""
        return [r for r in self.records if r.job_id == job_id]

    def successes(self) -> List[AttemptRecord]:
        """Records whose outcome is success."""
        return [r for r in self.records if r.outcome == SUCCESS]

    def killed(self) -> List[AttemptRecord]:
        """Records whose outcome is killed."""
        return [r for r in self.records if r.outcome == KILLED]

    def span(self) -> float:
        """Last finish time across all records."""
        return max((r.finish_time for r in self.records), default=0.0)

    def __len__(self) -> int:
        return len(self.records)
