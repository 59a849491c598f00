"""Structured trace emitter: JSONL span/event records.

A trace is a flat stream of JSON objects, one per line.  Three record types
share a common envelope (``type``, ``cat``, ``name``, ``ts``):

``event``
    An instant: task launch/kill, job submit/complete, a data transfer, a
    machine failure.  ``ts`` is simulation seconds.
``span``
    An interval: a task attempt (``ts`` = start, ``dur`` = read+compute
    seconds), a scheduling epoch, an epoch-controller epoch.
``lp_solve``
    One LP backend solve: rows/cols/nonzeros, wall seconds, iterations
    and terminal status (see :mod:`repro.obs.lpprof`).

Causal identity
---------------
Records may carry three optional identity attributes (allocated with
:meth:`Tracer.new_span_id`, see :mod:`repro.obs.spans`):

``span_id``
    This record's identity — a small integer unique within one trace.
``parent``
    The ``span_id`` of the record that *caused* this one (a task attempt's
    parent is the scheduling epoch that planned it).
``links``
    Non-parental causal references — the LP solve that placed a task, the
    placement transfer it waited on.

Ids are allocated sequentially per tracer, so a seeded run allocates the
same ids every time; the null tracer allocates nothing (``None``).

Everything else on a record is a free-form attribute.  Timestamps are
*simulation* seconds (LP wall time is the one real-clock quantity, and it is
carried as an attribute, never as ``ts``), so a seeded run traces
identically modulo wall-clock attrs.

Zero cost when disabled
-----------------------
The disabled path is :data:`NULL_TRACER` — ``enabled`` is ``False`` and
call sites guard on it, so an untraced simulation performs no attribute
formatting, no dict building and no I/O.  Tracing never mutates simulator
state; enabling it cannot perturb event ordering or any seeded result.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import deque
from typing import IO, Deque, Iterator, List, Optional, Sequence, Tuple, Union

#: Dispatch-level records (one per event-queue callback) and per-flow NIC
#: records are high-volume and excluded by default; pass ``categories``
#: including ``"dispatch"``/``"netflow"`` to a :class:`Tracer` to opt in.
DEFAULT_EXCLUDED_CATEGORIES = frozenset({"dispatch", "netflow"})


def json_default(obj):
    """JSON fallback for numpy scalars (ids often arrive as np.int64)."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


class TraceTap:
    """A bounded, non-blocking tap on a tracer's record stream.

    The live telemetry plane (:mod:`repro.obs.live`) attaches one of these
    to a :class:`Tracer` with :meth:`Tracer.add_tap`; every emitted record
    is *also* offered to the tap — a ring buffer of the most recent
    ``maxlen`` records with absolute sequence numbers, so HTTP readers can
    page forward with a cursor.  Offering never blocks and never raises:
    when the buffer is full the oldest record is evicted, and a reader
    whose cursor fell behind learns how many it missed from :meth:`tail`.

    The tap is passive: it copies record references, never mutates them,
    and never touches the tracer's sink — attaching one cannot perturb the
    trace file or any seeded result.
    """

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError("tap maxlen must be >= 1")
        self._lock = threading.Lock()
        self._buf: Deque[Tuple[int, dict]] = deque(maxlen=maxlen)
        self._next_seq = 0

    def offer(self, record: dict) -> None:
        """Buffer one record (non-blocking; evicts the oldest when full)."""
        with self._lock:
            self._buf.append((self._next_seq, record))
            self._next_seq += 1

    @property
    def seq(self) -> int:
        """Total records ever offered (the next record's sequence number)."""
        with self._lock:
            return self._next_seq

    def tail(
        self, since: Optional[int] = None, limit: Optional[int] = None
    ) -> Tuple[List[dict], int, int]:
        """Read buffered records; returns ``(records, next_cursor, lost)``.

        ``since=None`` is the tail view — the most recent ``limit`` records.
        With a cursor, records from ``since`` onward are returned oldest
        first (at most ``limit``); ``lost`` counts records already evicted
        past the cursor.  Pass ``next_cursor`` back as ``since`` to page.
        """
        with self._lock:
            oldest = self._buf[0][0] if self._buf else self._next_seq
            if since is None:
                records = [r for _, r in self._buf]
                if limit is not None and len(records) > limit:
                    records = records[len(records) - limit:]
                return records, self._next_seq, 0
            lost = max(0, oldest - since)
            out: List[dict] = []
            cursor = max(since, oldest)
            for s, r in self._buf:
                if s < cursor:
                    continue
                out.append(r)
                cursor = s + 1
                if limit is not None and len(out) >= limit:
                    break
            return out, cursor, lost


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Call sites guard with ``if tracer.enabled:`` so even argument
    evaluation is skipped on the hot path.
    """

    enabled = False

    def add_tap(self, tap: "TraceTap") -> None:
        """No-op: a disabled tracer emits nothing for a tap to see."""

    def wants(self, cat: str) -> bool:
        """Never wants anything."""
        return False

    def new_span_id(self) -> None:
        """No identity when disabled (``None``)."""
        return None

    def event(self, cat: str, name: str, ts: float, **attrs) -> None:
        """No-op."""

    def span(self, cat: str, name: str, ts: float, dur: float, **attrs) -> None:
        """No-op."""

    def lp_solve(self, record, ts: float = 0.0, **attrs) -> None:
        """No-op."""

    def close(self) -> None:
        """No-op."""


#: Shared disabled tracer; components default to this.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects trace records in memory and/or streams them as JSONL.

    Parameters
    ----------
    sink:
        An open text file to stream records to, one JSON object per line.
        ``None`` keeps records only in :attr:`records`.
    categories:
        When given, only these categories are recorded.  When ``None``,
        everything except :data:`DEFAULT_EXCLUDED_CATEGORIES` is.
    keep_records:
        Retain records in memory even while streaming to a sink.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[IO[str]] = None,
        categories: Optional[Sequence[str]] = None,
        keep_records: bool = True,
    ) -> None:
        self._sink = sink
        self._categories = frozenset(categories) if categories is not None else None
        self._keep = keep_records or sink is None
        self.records: List[dict] = []
        self._owns_sink = False
        self.closed = False
        self._next_span_id = 0
        #: live-plane taps fed from :meth:`emit` (see :class:`TraceTap`)
        self._taps: List[TraceTap] = []

    @classmethod
    def to_path(cls, path, categories: Optional[Sequence[str]] = None) -> "Tracer":
        """A tracer streaming JSONL to ``path`` (records not kept in memory)."""
        tracer = cls(sink=open(path, "w"), categories=categories, keep_records=False)
        tracer._owns_sink = True
        return tracer

    @classmethod
    def tap_only(cls, categories: Optional[Sequence[str]] = None) -> "Tracer":
        """A tracer that neither writes nor retains records — tap feed only.

        Used by ``--live-port`` without ``--trace``: the live plane's trace
        tail needs a record stream, but nothing should accumulate in memory
        or on disk.
        """
        tracer = cls(sink=None, categories=categories, keep_records=True)
        tracer._keep = False
        return tracer

    # -- taps ---------------------------------------------------------------
    def add_tap(self, tap: TraceTap) -> None:
        """Attach a live tap; every subsequent emitted record is offered."""
        if tap not in self._taps:
            self._taps.append(tap)

    # -- filtering ---------------------------------------------------------
    def wants(self, cat: str) -> bool:
        """True when records of category ``cat`` are being collected."""
        if self._categories is not None:
            return cat in self._categories
        return cat not in DEFAULT_EXCLUDED_CATEGORIES

    # -- causal identity ---------------------------------------------------
    def new_span_id(self) -> int:
        """Allocate the next span id (sequential, so seeded runs agree)."""
        self._next_span_id += 1
        return self._next_span_id

    # -- emission ----------------------------------------------------------
    def emit(self, record: dict) -> None:
        """Record one raw trace record (already enveloped).

        Raises ``ValueError`` after :meth:`close`: a record emitted then
        would be missing from the trace.
        """
        if self.closed:
            raise ValueError(f"emit on a closed tracer: {record.get('name')!r}")
        line = (
            json.dumps(record, separators=(",", ":"), default=json_default)
            if self._sink is not None
            else None
        )
        if self._keep:
            self.records.append(record)
        if line is not None:
            self._sink.write(line + "\n")
        # taps see records in sink order (offer is non-blocking)
        for tap in self._taps:
            tap.offer(record)

    def event(self, cat: str, name: str, ts: float, **attrs) -> None:
        """Emit an instant event."""
        if not self.wants(cat):
            return
        record = {"type": "event", "cat": cat, "name": name, "ts": ts}
        record.update(attrs)
        self.emit(record)

    def span(self, cat: str, name: str, ts: float, dur: float, **attrs) -> None:
        """Emit an interval record covering ``[ts, ts + dur)``."""
        if not self.wants(cat):
            return
        record = {"type": "span", "cat": cat, "name": name, "ts": ts, "dur": dur}
        record.update(attrs)
        self.emit(record)

    def lp_solve(self, record, ts: float = 0.0, **attrs) -> None:
        """Emit an LP solve record (an :class:`~repro.obs.lpprof.LPSolveRecord`).

        ``attrs`` carries causal identity (``span_id``, ``parent``) and any
        other context the collector wants to attach.
        """
        if not self.wants("lp"):
            return
        row = {"type": "lp_solve", "cat": "lp", "name": record.name, "ts": ts}
        row.update(record.to_dict())
        row.update(attrs)
        self.emit(row)

    def close(self) -> None:
        """Flush and close an owned sink; idempotent.

        Used as a context manager the tracer closes on exceptions too, so a
        crashed run still leaves a loadable (truncated) JSONL trace.
        Emitting afterwards raises ``ValueError``.
        """
        if self.closed:
            return
        self.closed = True
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BufferedTracer:
    """Defers emission to an inner tracer until :meth:`flush`.

    Lets a caller make a block of trace output all-or-nothing relative to
    some other durable action: collect the block's records here, perform
    the action (e.g. a write-ahead-log append), then :meth:`flush` — if
    the action never completes, :meth:`discard` (or simply dropping the
    buffer) leaves the inner tracer untouched.  ``repro.serve`` uses this
    to keep the trace file free of epoch spans the journal does not have.

    Span ids are allocated from the inner tracer *eagerly* — the same
    sequence as unbuffered emission, so seeded runs trace identically —
    and category filtering is applied at buffering time, so a record the
    inner tracer would drop is never queued.
    """

    def __init__(self, inner: "AnyTracer") -> None:
        self.inner = inner
        self._pending: List[tuple] = []

    @property
    def enabled(self) -> bool:
        """Mirrors the inner tracer (call sites guard on this)."""
        return self.inner.enabled

    def wants(self, cat: str) -> bool:
        """Delegates to the inner tracer's category filter."""
        return self.inner.wants(cat)

    def new_span_id(self):
        """Allocate from the inner tracer (ids stay globally sequential)."""
        return self.inner.new_span_id()

    def add_tap(self, tap: TraceTap) -> None:
        """Attach to the inner tracer (taps see records at flush time)."""
        self.inner.add_tap(tap)

    def event(self, cat: str, name: str, ts: float, **attrs) -> None:
        """Queue an instant event for the next :meth:`flush`."""
        if self.inner.wants(cat):
            self._pending.append(("event", (cat, name, ts), attrs))

    def span(self, cat: str, name: str, ts: float, dur: float, **attrs) -> None:
        """Queue an interval record for the next :meth:`flush`."""
        if self.inner.wants(cat):
            self._pending.append(("span", (cat, name, ts, dur), attrs))

    def lp_solve(self, record, ts: float = 0.0, **attrs) -> None:
        """Queue an LP solve record for the next :meth:`flush`."""
        if self.inner.wants("lp"):
            self._pending.append(("lp_solve", (record, ts), attrs))

    def flush(self) -> None:
        """Emit every queued record to the inner tracer, in order."""
        for kind, args, attrs in self._pending:
            getattr(self.inner, kind)(*args, **attrs)
        self._pending.clear()

    def discard(self) -> None:
        """Drop every queued record without emitting."""
        self._pending.clear()

    def close(self) -> None:
        """No-op: the inner tracer's owner closes it."""


AnyTracer = Union[Tracer, NullTracer, BufferedTracer]

#: The ambient tracer components fall back to when none is passed
#: explicitly.  Defaults to the null tracer; the CLI installs a real one
#: for ``--trace``.
_current: AnyTracer = NULL_TRACER


def current_tracer() -> AnyTracer:
    """The ambient tracer (the null tracer unless one is installed)."""
    return _current


@contextlib.contextmanager
def use_tracer(tracer: AnyTracer) -> Iterator[AnyTracer]:
    """Install ``tracer`` as the ambient tracer for the dynamic extent."""
    global _current
    prev = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = prev
