"""LP solve profiling: one record per backend solve.

Both LP backends (:class:`~repro.lp.scipy_backend.HighsBackend` and
:class:`~repro.lp.simplex.SimplexBackend`) report every ``solve_assembled``
call here through :func:`observed_solve` — model shape
(rows/cols/nonzeros), wall seconds, simplex iterations and terminal status.
Collection is pull-based: nothing is recorded unless a collector is
installed with :func:`collect`, so an untraced solve costs one
:func:`active` test.

The simulator and the epoch controller install collectors for the duration
of a run; that is what makes ``SimMetrics.lp_solves`` count *every* solve on
the shared path (scheduler epochs, offline models, cross-validation solves)
instead of only the ones a particular scheduler remembered to time.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Mapping


@dataclass(frozen=True)
class LPSolveRecord:
    """Shape, cost and outcome of one LP backend solve.

    ``meta`` carries the caller's solve scope (see :func:`scope`) — e.g.
    the epoch index and scheduler a solve belongs to — flattened into the
    trace record so analysis can join solves to epochs without relying on
    collector installation order.
    """

    name: str
    backend: str
    rows_ub: int
    rows_eq: int
    cols: int
    nnz: int
    wall_seconds: float
    iterations: int
    status: str
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def rows(self) -> int:
        """Total constraint rows (inequality + equality)."""
        return self.rows_ub + self.rows_eq

    def to_dict(self) -> dict:
        """Flat JSON-ready view (used by the trace emitter)."""
        out = {
            "backend": self.backend,
            "rows_ub": self.rows_ub,
            "rows_eq": self.rows_eq,
            "cols": self.cols,
            "nnz": self.nnz,
            "wall_s": self.wall_seconds,
            "iterations": self.iterations,
            "status": self.status,
        }
        for key, value in self.meta.items():
            out.setdefault(key, value)
        return out


Collector = Callable[[LPSolveRecord], None]

#: Installed collectors (a stack: nested scopes all observe).
_collectors: List[Collector] = []

#: Solve-scope stack: caller-provided context stamped onto every record a
#: backend emits inside the scope (epoch index, scheduler name, ...).
_scopes: List[dict] = []


def current_scope() -> dict:
    """The merged attributes of every active solve scope (innermost wins)."""
    if not _scopes:
        return {}
    merged: dict = {}
    for entry in _scopes:
        merged.update(entry)
    return merged


@contextlib.contextmanager
def scope(**attrs) -> Iterator[dict]:
    """Stamp ``attrs`` onto every solve record emitted in this extent.

    The epoch controller and LiPS wrap their per-epoch solves in
    ``scope(epoch=i, scheduler=...)``, which is what lets a trace join an
    ``lp_solve`` record back to its epoch even when several backends (or a
    resilient retry chain) ran inside the same epoch.
    """
    entry = dict(attrs)
    _scopes.append(entry)
    try:
        yield entry
    finally:
        _scopes.remove(entry)


def active() -> bool:
    """True when at least one collector wants solve records."""
    return bool(_collectors)


def observe(record: LPSolveRecord) -> None:
    """Deliver one solve record to every installed collector."""
    for cb in list(_collectors):
        cb(record)


def observed_solve(backend: str, asm, solve: Callable):
    """Run ``solve(asm)`` and deliver its :class:`LPSolveRecord`.

    The backends call this only when :func:`active`, so the untraced path
    never times a solve.  ``backend`` names the backend on the record.
    """
    t0 = time.perf_counter()
    result = solve(asm)
    observe(
        LPSolveRecord(
            name=asm.name,
            backend=backend,
            wall_seconds=time.perf_counter() - t0,
            iterations=result.iterations,
            status=result.status.value,
            meta=current_scope(),
            rows_ub=int(asm.a_ub.shape[0]),
            rows_eq=int(asm.a_eq.shape[0]),
            cols=int(asm.num_variables),
            nnz=int(asm.a_ub.nnz + asm.a_eq.nnz),
        )
    )
    return result


@contextlib.contextmanager
def collect(callback: Collector) -> Iterator[Collector]:
    """Install ``callback`` as a solve-record collector for the extent."""
    _collectors.append(callback)
    try:
        yield callback
    finally:
        _collectors.remove(callback)


@dataclass
class LPProfile:
    """A convenience collector accumulating records and summary stats."""

    records: List[LPSolveRecord] = field(default_factory=list)

    def __call__(self, record: LPSolveRecord) -> None:
        self.records.append(record)

    @property
    def solves(self) -> int:
        """Number of solves observed."""
        return len(self.records)

    @property
    def wall_seconds(self) -> float:
        """Total wall seconds across observed solves."""
        return sum(r.wall_seconds for r in self.records)

    @property
    def iterations(self) -> int:
        """Total simplex iterations across observed solves."""
        return sum(r.iterations for r in self.records)

    def by_status(self) -> dict:
        """Solve counts per terminal status."""
        out: dict = {}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out


@contextlib.contextmanager
def profile() -> Iterator[LPProfile]:
    """Collect solve records into a fresh :class:`LPProfile`.

    Example
    -------
    >>> from repro.obs import lpprof
    >>> with lpprof.profile() as prof:
    ...     pass  # run solves
    >>> prof.solves
    0
    """
    prof = LPProfile()
    with collect(prof):
        yield prof
