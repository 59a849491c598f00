"""TaskTrackers: per-node slots and task attempt execution.

A :class:`TaskAttempt` is one execution of a :class:`SimTask` on a machine —
speculative execution may create several attempts per task; the first to
finish wins.  Attempt duration is ``read_time + cpu_seconds / ecu``; both
the read and the CPU burn are charged to the cost ledger by the simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.cluster.machine import Machine
from repro.obs.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hadoop.events import EventHandle


@dataclass(eq=False)
class SimTask:
    """A schedulable map task: one block, or one input-less slice.

    ``candidate_stores`` lists stores currently holding the task's block;
    LiPS may rewrite it after moving data.  ``earliest_start`` delays tasks
    whose input is still in flight (LiPS placement moves).

    Tasks compare by identity: each is created once (by ``expand_job``), so
    ``pending.remove(task)`` is a pointer compare, not a field-by-field one;
    ``queued`` answers "is it pending?" in O(1).
    """

    job_id: int
    task_index: int
    input_mb: float
    cpu_seconds: float
    block_id: Optional[int] = None
    data_id: Optional[int] = None
    candidate_stores: List[int] = field(default_factory=list)
    earliest_start: float = 0.0
    #: set by LiPS plans: the store this task must read from
    pinned_store: Optional[int] = None
    #: True while the task sits in its job's ``pending`` list (kept by
    #: ``JobState``, so membership tests are O(1))
    queued: bool = field(default=False, init=False, repr=False)

    @property
    def key(self) -> tuple:
        """(job_id, task_index) — unique across the run."""
        return (self.job_id, self.task_index)


@dataclass
class TaskAttempt:
    """One run of a task on a tracker."""

    attempt_id: int
    task: SimTask
    machine_id: int
    source_store: Optional[int]
    start_time: float
    read_seconds: float
    compute_seconds: float
    speculative: bool = False
    finish_event: Optional["EventHandle"] = None
    killed: bool = False
    #: causal identity (traced runs only): this attempt's span id, the
    #: epoch span that planned it, and links to the LP solve / placement
    #: move that caused it (see repro.obs.spans)
    span_id: Optional[int] = None
    parent_span: Optional[int] = None
    links: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Read plus compute wall seconds."""
        return self.read_seconds + self.compute_seconds

    @property
    def finish_time(self) -> float:
        """Scheduled completion time of the attempt."""
        return self.start_time + self.duration

    @property
    def is_local(self) -> bool:
        """True when the read came from the machine's own store (or no read)."""
        return self.source_store is None or self.read_is_local

    # populated by the simulator at launch
    read_is_local: bool = False


class TaskTracker:
    """Slot bookkeeping for one machine."""

    _ids = itertools.count()

    def __init__(self, machine: Machine, tracer=None) -> None:
        self.machine = machine
        #: the underlying machine's id (read on every slot offer)
        self.machine_id: int = machine.machine_id
        self.map_slots = machine.map_slots
        self.running: Dict[int, TaskAttempt] = {}
        self.cpu_busy_seconds = 0.0  # equivalent-CPU-seconds executed
        self.wall_busy_seconds = 0.0
        self.alive = True  # failure injection flips this
        #: trace emitter for attempt lifecycle (the simulator installs its own)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def free_slots(self) -> int:
        """Free map slots (0 while the machine is down)."""
        if not self.alive:
            return 0
        return self.map_slots - len(self.running)

    @property
    def has_free_slot(self) -> bool:
        """True when a map slot is free."""
        return self.free_slots > 0

    def launch(self, attempt: TaskAttempt) -> None:
        """Occupy a map slot with an attempt."""
        if not self.has_free_slot:
            raise RuntimeError(f"tracker {self.machine.name} has no free slot")
        self.running[attempt.attempt_id] = attempt
        if self.tracer.enabled:
            self.tracer.event(
                "task",
                "launch",
                attempt.start_time,
                job=attempt.task.job_id,
                task=attempt.task.task_index,
                attempt=attempt.attempt_id,
                machine=self.machine_id,
                speculative=attempt.speculative,
                read_s=attempt.read_seconds,
                compute_s=attempt.compute_seconds,
                span_id=attempt.span_id,
            )

    def complete(self, attempt: TaskAttempt) -> None:
        """Release the slot and accrue busy time."""
        self.running.pop(attempt.attempt_id, None)
        if not attempt.killed:
            self.cpu_busy_seconds += attempt.task.cpu_seconds
            self.wall_busy_seconds += attempt.duration
            if self.tracer.enabled:
                causal = {}
                if attempt.parent_span is not None:
                    causal["parent"] = attempt.parent_span
                if attempt.links:
                    causal["links"] = attempt.links
                self.tracer.span(
                    "task",
                    "attempt",
                    attempt.start_time,
                    attempt.duration,
                    job=attempt.task.job_id,
                    task=attempt.task.task_index,
                    attempt=attempt.attempt_id,
                    machine=self.machine_id,
                    speculative=attempt.speculative,
                    local=attempt.read_is_local,
                    source_store=attempt.source_store,
                    input_mb=attempt.task.input_mb,
                    read_s=attempt.read_seconds,
                    compute_s=attempt.compute_seconds,
                    span_id=attempt.span_id,
                    **causal,
                )

    def kill(self, attempt: TaskAttempt) -> float:
        """Kill a running attempt; returns the CPU-seconds it consumed so far.

        Killed attempts still burned cycles — the paper's point about
        speculative copies costing real dollars.
        """
        attempt.killed = True
        if attempt.finish_event is not None:
            attempt.finish_event.cancel()
        self.running.pop(attempt.attempt_id, None)
        return attempt.task.cpu_seconds  # conservatively bill the full burn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskTracker({self.machine.name!r}, "
            f"{len(self.running)}/{self.map_slots} slots busy)"
        )
