"""Discrete-event simulation core: a deterministic event queue.

Events are ``[time, priority, seq, callback]`` heap entries; ``seq`` breaks
ties so same-time events fire in scheduling order, keeping runs fully
deterministic for a given seed.  Entries are plain lists, so every heap
comparison runs in C (``seq`` is unique, so ``callback`` is never compared).

Cancellation is lazy — a cancelled entry (``callback`` set to ``None``)
stays in the heap and is skipped when popped — but not leaky: the queue
counts cancelled residents and compacts the heap in place once they
outnumber the live entries (beyond a small floor), so a workload that
schedules and cancels aggressively (e.g. speculative retries) holds O(live)
memory, not O(ever-scheduled).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.obs.trace import NULL_TRACER

Callback = Callable[[], None]

#: compaction triggers only above this many cancelled residents (tiny heaps
#: are cheaper to scan lazily than to rebuild)
COMPACT_MIN_CANCELLED = 64

#: a heap entry, ``[time, priority, seq, callback or None once cancelled]``
_Entry = List[Any]
_TIME = 0
_CALLBACK = 3


class EventHandle:
    """Returned by :meth:`EventQueue.schedule`; allows cancellation."""

    __slots__ = ("_entry", "_queue")

    def __init__(self, entry: _Entry, queue: "EventQueue") -> None:
        self._entry = entry
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event cancelled; it will not fire.  Idempotent."""
        if self._entry[_CALLBACK] is not None:
            self._entry[_CALLBACK] = None
            self._queue._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled."""
        return self._entry[_CALLBACK] is None

    @property
    def time(self) -> float:
        """The simulation time the event is scheduled for."""
        return self._entry[_TIME]


class EventQueue:
    """A deterministic min-heap event queue with a simulation clock.

    ``tracer`` observes event dispatch: when it is enabled *and* opted into
    the high-volume ``dispatch`` category, every executed callback emits a
    trace event.  The null tracer (the default) costs one attribute read
    per step.
    """

    def __init__(self, tracer=None) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        #: cancelled entries still resident in the heap
        self._cancelled = 0
        #: heap rebuilds performed to evict cancelled entries
        self._compactions = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def compactions(self) -> int:
        """Heap compactions performed (observability for soak tests)."""
        return self._compactions

    def schedule(self, time: float, callback: Callback, priority: int = 0) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``.

        ``priority`` orders same-time events (lower fires first).  Scheduling
        in the past raises — that is always a simulator bug.
        """
        if time < self._now - 1e-9:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        entry = [max(time, self._now), priority, next(self._seq), callback]
        heapq.heappush(self._heap, entry)
        return EventHandle(entry, self)

    def schedule_in(self, delay: float, callback: Callback, priority: int = 0) -> EventHandle:
        """Schedule relative to the current clock."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.schedule(self._now + delay, callback, priority)

    def _note_cancelled(self) -> None:
        """Account one newly cancelled resident; compact when they dominate."""
        self._cancelled += 1
        if (
            self._cancelled > COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries, O(live)."""
        self._heap = [e for e in self._heap if e[_CALLBACK] is not None]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, priority, seq, callback = heapq.heappop(heap)
            if callback is None:
                self._cancelled -= 1
                continue
            self._now = time
            self._processed += 1
            tracer = self.tracer
            if tracer.enabled and tracer.wants("dispatch"):
                tracer.event(
                    "dispatch",
                    getattr(callback, "__qualname__", "callback"),
                    time,
                    priority=priority,
                    seq=seq,
                )
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains (or ``until``/``max_events`` hits)."""
        count = 0
        while self._heap:
            if until is not None and self.peek_time() is not None and self.peek_time() > until:
                self._now = until
                return
            if not self.step():
                return
            count += 1
            if count > max_events:
                raise RuntimeError(f"exceeded max_events={max_events}; runaway simulation?")

    def peek_time(self) -> Optional[float]:
        """Time of the next (non-cancelled) event, or None."""
        while self._heap and self._heap[0][_CALLBACK] is None:
            heapq.heappop(self._heap)
            self._cancelled -= 1
        return self._heap[0][_TIME] if self._heap else None

    def __len__(self) -> int:
        """Live (non-cancelled) events — O(1) via the cancellation count."""
        return len(self._heap) - self._cancelled
