"""Critical-path extraction: why the makespan is what it is.

Reconstructs the dependency DAG of a traced run from causal identity
(``span_id``/``parent``/``links``, see :mod:`repro.obs.spans`) and walks it
*backwards* from the last-finishing task attempt, at each step following
the binding constraint — the thing that finished last before the current
record could start:

* another attempt releasing the machine's slot (``queue-wait`` gap),
* the placement transfer the task's block rode in on (a
  ``placement-transfer`` segment, via the attempt's ``links``),
* the scheduling epoch that planned the task (``epoch-wait`` back to the
  job's submission),
* the job's arrival itself (``arrival-wait`` back to t=0).

The walk yields a chain of :class:`Segment` intervals that exactly tile
``[0, makespan]`` — attempt intervals split into their transfer
(``read_s``) and ``compute`` parts — so per-kind totals are a *complete*
decomposition of the makespan: :meth:`CriticalPath.check` enforces the
sum-to-makespan invariant within ``1e-9`` seconds.

LP solver time is real wall-clock, not simulated seconds, so it can never
be a timeline segment; instead the wall seconds of every epoch on the path
are surfaced as :attr:`CriticalPath.solver_wall_s`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.spans import SpanIndex
from repro.obs.ledger import summary_from_trace

#: Segment kinds, in rough "useful work first" order.
COMPUTE = "compute"
RUNTIME_TRANSFER = "runtime-transfer"
PLACEMENT_TRANSFER = "placement-transfer"
QUEUE_WAIT = "queue-wait"
EPOCH_WAIT = "epoch-wait"
ARRIVAL_WAIT = "arrival-wait"

KINDS = (
    COMPUTE,
    RUNTIME_TRANSFER,
    PLACEMENT_TRANSFER,
    QUEUE_WAIT,
    EPOCH_WAIT,
    ARRIVAL_WAIT,
)

_EPS = 1e-12


class CritPathError(AssertionError):
    """The extracted segments do not tile ``[0, makespan]``."""


@dataclass(frozen=True)
class Segment:
    """One interval of the critical path."""

    start: float
    end: float
    kind: str
    detail: str = ""
    span_id: Optional[int] = None

    @property
    def duration(self) -> float:
        """Seconds covered by the segment."""
        return self.end - self.start


@dataclass
class CriticalPath:
    """The makespan-defining chain of a traced run."""

    segments: List[Segment] = field(default_factory=list)
    makespan: float = 0.0
    #: real wall seconds of LP solving inside epochs on the path
    solver_wall_s: float = 0.0

    def by_kind(self) -> Dict[str, float]:
        """Seconds of makespan attributed to each segment kind."""
        out: Dict[str, List[float]] = {}
        for s in self.segments:
            out.setdefault(s.kind, []).append(s.duration)
        return {k: math.fsum(v) for k, v in out.items()}

    @property
    def total(self) -> float:
        """Exact (fsum) sum of segment durations."""
        return math.fsum(s.duration for s in self.segments)

    def check(self, tol: float = 1e-9) -> float:
        """Enforce the invariant: segments tile ``[0, makespan]``.

        Returns the signed residual ``total - makespan``; raises
        :class:`CritPathError` when it exceeds ``tol`` or the segments are
        not contiguous — a decomposition with holes is not an attribution.
        """
        residual = self.total - self.makespan
        if abs(residual) > tol:
            raise CritPathError(
                f"critical-path segments sum to {self.total!r} but the "
                f"makespan is {self.makespan!r} (residual {residual:+.3e})"
            )
        cursor = 0.0
        for s in self.segments:
            if abs(s.start - cursor) > tol:
                raise CritPathError(
                    f"segment gap at t={cursor!r}: next segment starts at "
                    f"{s.start!r} ({s.kind} {s.detail})"
                )
            cursor = s.end
        if self.segments and abs(cursor - self.makespan) > tol:
            raise CritPathError(
                f"segments end at {cursor!r}, not the makespan {self.makespan!r}"
            )
        return residual

    def render(self) -> str:
        """ASCII table of the path plus the per-kind decomposition."""
        lines = [f"critical path: makespan {self.makespan:.2f}s in {len(self.segments)} segments"]
        for s in self.segments:
            lines.append(
                f"  [{s.start:10.2f} -> {s.end:10.2f}] {s.duration:9.2f}s  "
                f"{s.kind:<18} {s.detail}"
            )
        lines.append("by kind:")
        totals = self.by_kind()
        for kind in KINDS:
            if kind in totals:
                share = totals[kind] / self.makespan if self.makespan else 0.0
                lines.append(f"  {kind:<18} {totals[kind]:10.2f}s  {100 * share:5.1f}%")
        if self.solver_wall_s:
            lines.append(f"lp solver wall time on path: {1e3 * self.solver_wall_s:.1f} ms")
        return "\n".join(lines)


def _is_attempt(r: dict) -> bool:
    return r.get("type") == "span" and r.get("cat") == "task" and r.get("name") == "attempt"


def _end(r: dict) -> float:
    return float(r.get("ts", 0.0)) + float(r.get("dur", 0.0))


def _attempt_detail(r: dict) -> str:
    return (
        f"job {r.get('job')} map task {r.get('task')} "
        f"attempt {r.get('attempt')} @ machine {r.get('machine')}"
    )


def critical_path(records: Iterable[dict]) -> CriticalPath:
    """Extract the critical path of one traced run.

    ``records`` is a loaded JSONL trace (:func:`repro.obs.export.load_jsonl`)
    written with causal identity.  Returns an already-:meth:`checked
    <CriticalPath.check>` :class:`CriticalPath`.
    """
    records = list(records)
    index = SpanIndex.from_records(records)
    attempts = [r for r in records if _is_attempt(r)]
    if not attempts:
        return CriticalPath()

    submits: Dict[int, float] = {}
    for r in records:
        if r.get("cat") == "job" and r.get("name") == "submit":
            submits[int(r["job"])] = float(r.get("ts", 0.0))

    summaries = [
        r for r in records if r.get("cat") == "summary" and r.get("name") == "run"
    ]
    if len(summaries) > 1:
        raise CritPathError(
            f"trace contains {len(summaries)} runs; the critical path is "
            "per-run — trace a single run (one --trace per experiment run)"
        )

    # last-finishing attempt anchors the walk (deterministic tie-break)
    last = max(attempts, key=lambda r: (_end(r), r.get("ts", 0.0), r.get("span_id") or 0))
    makespan = _end(last)
    summary = summary_from_trace(records)
    if summary is not None:
        makespan = float(summary.get("makespan", makespan))

    segments: List[Segment] = []
    epoch_ids_on_path = set()

    def push(start: float, end: float, kind: str, detail: str, span_id=None) -> None:
        if end - start > _EPS:
            segments.append(Segment(start, end, kind, detail, span_id))

    def tail_to_zero(cursor: float, job: Optional[int], epoch: Optional[dict]) -> None:
        """Explain [0, cursor] with epoch-/arrival-wait gaps."""
        submit_ts = submits.get(job, 0.0) if job is not None else 0.0
        if epoch is not None:
            epoch_ts = max(0.0, min(float(epoch.get("ts", 0.0)), cursor))
            if epoch.get("span_id") is not None:
                epoch_ids_on_path.add(int(epoch["span_id"]))
            push(epoch_ts, cursor, QUEUE_WAIT, f"slot wait after epoch {epoch.get('index')}")
            cursor = epoch_ts
            submit_ts = min(submit_ts, cursor)
            push(
                submit_ts,
                cursor,
                EPOCH_WAIT,
                f"job {job} waiting for epoch {epoch.get('index')}",
            )
            cursor = submit_ts
        else:
            submit_ts = min(submit_ts, cursor)
            push(submit_ts, cursor, QUEUE_WAIT, f"job {job} queued")
            cursor = submit_ts
        push(0.0, cursor, ARRIVAL_WAIT, f"job {job} not yet arrived")

    current = last
    cursor = makespan
    while current is not None:
        ts = float(current.get("ts", 0.0))
        read_s = float(current.get("read_s", 0.0))
        detail = _attempt_detail(current)
        sid = current.get("span_id")
        walked_epoch = index.parent(current)
        if walked_epoch is not None and walked_epoch.get("span_id") is not None:
            epoch_ids_on_path.add(int(walked_epoch["span_id"]))
        push(ts + read_s, cursor, COMPUTE, detail, sid)
        push(ts, ts + read_s, RUNTIME_TRANSFER, f"read for {detail}", sid)
        cursor = ts
        if cursor <= _EPS:
            break

        epoch = walked_epoch
        move = None
        for linked in index.linked(current):
            if linked.get("cat") == "transfer" and linked.get("name") == "move":
                move = linked

        # binding constraint: whichever enabler finished last before `ts`
        machine = current.get("machine")
        job = current.get("job")
        pred = None
        for r in attempts:
            if r is current or _end(r) > cursor + _EPS or r.get("machine") != machine:
                continue
            if pred is None or (_end(r), r.get("ts", 0.0)) > (_end(pred), pred.get("ts", 0.0)):
                pred = r
        candidates = []
        if pred is not None:
            candidates.append((_end(pred), "attempt"))
        if move is not None and _end(move) <= cursor + _EPS:
            candidates.append((_end(move), "move"))
        if not candidates:
            tail_to_zero(cursor, job, epoch)
            current = None
            continue
        when, what = max(candidates)
        if what == "attempt":
            push(when, cursor, QUEUE_WAIT, f"slot busy on machine {machine}", None)
            cursor = when
            current = pred
            if _end(pred) > cursor + _EPS:
                # zero-progress guard (overlapping records): fall out via tail
                tail_to_zero(cursor, job, epoch)
                current = None
        else:
            push(when, cursor, QUEUE_WAIT, f"waiting for moved block on machine {machine}")
            mdetail = (
                f"move block {move.get('block')} store {move.get('src')} -> "
                f"{move.get('dest')} ({move.get('mb', 0):.0f} MB)"
            )
            push(float(move["ts"]), when, PLACEMENT_TRANSFER, mdetail, move.get("span_id"))
            cursor = float(move["ts"])
            tail_to_zero(cursor, job, index.parent(move) or epoch)
            current = None

    segments.reverse()
    # solver wall time of the epochs the path passed through
    solver_wall = 0.0
    for sid in epoch_ids_on_path:
        rec = index.get(sid)
        if rec is not None:
            solver_wall += float(rec.get("lp_wall_s", 0.0))
    path = CriticalPath(segments=segments, makespan=makespan, solver_wall_s=solver_wall)
    path.check()
    return path
