"""Job-history log: per-attempt records, like Hadoop's job history files.

With ``SimConfig(record_history=True)`` the simulator appends one
:class:`AttemptRecord` per finished (or killed) attempt.  The log enables
post-hoc analysis the aggregate metrics cannot answer — who ran where and
when, how reads broke down, how failures rippled — and renders a compact
ASCII timeline for eyeballing schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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

    def for_machine(self, machine_id: int) -> List[AttemptRecord]:
        """Records on one machine, sorted by start time."""
        return sorted(
            (r for r in self.records if r.machine_id == machine_id),
            key=lambda r: r.start_time,
        )

    def successes(self) -> List[AttemptRecord]:
        """Records whose outcome is success."""
        return [r for r in self.records if r.outcome == SUCCESS]

    def killed(self) -> List[AttemptRecord]:
        """Records whose outcome is killed."""
        return [r for r in self.records if r.outcome == KILLED]

    def span(self) -> float:
        """Last finish time across all records."""
        return max((r.finish_time for r in self.records), default=0.0)

    def machine_busy_intervals(self, machine_id: int) -> List[tuple]:
        """(start, finish) intervals on one machine."""
        return [(r.start_time, r.finish_time) for r in self.for_machine(machine_id)]

    def __len__(self) -> int:
        return len(self.records)


def render_timeline(
    history: JobHistory,
    machine_ids: Sequence[int],
    width: int = 72,
    labels: Optional[Dict[int, str]] = None,
) -> str:
    """ASCII occupancy timeline, one row per machine.

    Each column is a time bucket; the glyph is the number of attempts
    active in the bucket (``.`` idle, ``9+`` saturated).  Good enough to
    *see* LiPS packing the cheap nodes while the pricey ones idle.
    """
    span = history.span()
    if span <= 0:
        return "(empty history)"
    bucket = span / width
    lines = [f"timeline: {span:.0f}s across {width} buckets ({bucket:.1f}s each)"]
    for m in machine_ids:
        counts = [0] * width
        for start, finish in history.machine_busy_intervals(m):
            first = min(width - 1, int(start / bucket))
            last = min(width - 1, int(max(start, finish - 1e-9) / bucket))
            for b in range(first, last + 1):
                counts[b] += 1
        row = "".join(
            "." if c == 0 else (str(c) if c <= 9 else "+") for c in counts
        )
        label = (labels or {}).get(m, f"m{m}")
        lines.append(f"{label:>16s} |{row}|")
    return "\n".join(lines)
