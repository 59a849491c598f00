"""Dollar-attribution ledger: every cent of a run, decomposed and reconciled.

The simulator's :class:`~repro.cost.accounting.CostLedger` records atomic
charges; this module folds them into a :class:`DollarLedger` — totals keyed
by ``job x node x category`` — and *reconciles* the fold against the
authoritative simulator total: the cells must re-sum to ``total_cost``
within ``1e-9`` dollars or :class:`LedgerMismatch` is raised.  Attribution
that does not add up is worse than no attribution.

``node`` is the machine a charge executed on (CPU, runtime transfers) or
the destination store it shipped data to (placement transfers); ``job`` is
``None`` for charges no job caused.  Each cell also tracks how many of its
charges carry a trace ``span_id`` (``linked``/``linked_dollars``) — the
join coverage against :mod:`repro.obs.trace` spans.

At the end of a traced run the ledger is projected into the trace itself —
one ``cat="cost"`` record per cell plus one ``cat="summary"`` record — so
downstream analysis (``python -m repro diff``, :mod:`repro.obs.diff`)
needs only the trace file, never the live run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cost.accounting import CostLedger

#: Cell key: (job id or None, node id or None, charge category).
CellKey = Tuple[Optional[int], Optional[int], str]


class LedgerMismatch(AssertionError):
    """The decomposed cells do not re-sum to the authoritative total."""


@dataclass(frozen=True)
class LedgerCell:
    """Dollars attributed to one ``job x node x category`` cell."""

    job: Optional[int]
    node: Optional[int]
    category: str
    dollars: float
    #: atomic charges folded into the cell
    charges: int = 0
    #: charges carrying a trace span_id (the trace join coverage)
    linked: int = 0
    linked_dollars: float = 0.0


@dataclass
class DollarLedger:
    """A run's cost, decomposed by job x node x category.

    Build with :meth:`from_cost_ledger` (live run) or :meth:`from_trace`
    (persisted ``cat="cost"`` records); always :meth:`reconcile` against
    the simulator total before trusting a decomposition.
    """

    cells: Dict[CellKey, LedgerCell] = field(default_factory=dict)

    @classmethod
    def from_cost_ledger(cls, ledger: CostLedger) -> "DollarLedger":
        """Fold a cost ledger's atomic charges into attribution cells."""
        rolling = RollingLedger()
        rolling.fold(ledger)
        return rolling.to_dollar_ledger()

    @classmethod
    def from_trace(cls, records: Iterable[dict]) -> "DollarLedger":
        """Rebuild a ledger from a trace's ``cat="cost"`` cell records."""
        cells: Dict[CellKey, LedgerCell] = {}
        for r in records:
            if r.get("cat") != "cost" or r.get("name") != "cell":
                continue
            key = (r.get("job"), r.get("node"), str(r.get("category")))
            cells[key] = LedgerCell(
                job=key[0],
                node=key[1],
                category=key[2],
                dollars=float(r.get("dollars", 0.0)),
                charges=int(r.get("charges", 0)),
                linked=int(r.get("linked", 0)),
                linked_dollars=float(r.get("linked_dollars", 0.0)),
            )
        return cls(cells=cells)

    # -- queries -----------------------------------------------------------
    @property
    def total(self) -> float:
        """Exact (fsum) total over every cell."""
        return math.fsum(c.dollars for c in self.cells.values())

    def rows(self) -> List[LedgerCell]:
        """Cells in deterministic (job, node, category) order."""
        return [
            self.cells[k]
            for k in sorted(
                self.cells,
                key=lambda k: (
                    (0, k[0]) if k[0] is not None else (1, -1),
                    (0, k[1]) if k[1] is not None else (1, -1),
                    k[2],
                ),
            )
        ]

    def by_category(self) -> Dict[str, float]:
        """Totals keyed by charge category."""
        out: Dict[str, List[float]] = {}
        for c in self.cells.values():
            out.setdefault(c.category, []).append(c.dollars)
        return {cat: math.fsum(vals) for cat, vals in sorted(out.items())}

    def by_job(self) -> Dict[Optional[int], float]:
        """Totals keyed by job (None = unattributed)."""
        out: Dict[Optional[int], List[float]] = {}
        for c in self.cells.values():
            out.setdefault(c.job, []).append(c.dollars)
        return {j: math.fsum(vals) for j, vals in out.items()}

    def by_node(self) -> Dict[Optional[int], float]:
        """Totals keyed by node (machine or destination store)."""
        out: Dict[Optional[int], List[float]] = {}
        for c in self.cells.values():
            out.setdefault(c.node, []).append(c.dollars)
        return {n: math.fsum(vals) for n, vals in out.items()}

    @property
    def linked_fraction(self) -> float:
        """Fraction of dollars joined to a trace span (1.0 = full coverage)."""
        total = self.total
        if total == 0:
            return 1.0
        return math.fsum(c.linked_dollars for c in self.cells.values()) / total

    # -- the invariant -----------------------------------------------------
    def reconcile(self, expected_total: float, tol: float = 1e-9) -> float:
        """Check the cells re-sum to ``expected_total`` within ``tol``.

        Returns the signed residual; raises :class:`LedgerMismatch` when it
        exceeds ``tol`` — attribution must account for every cent.
        """
        residual = self.total - expected_total
        if abs(residual) > tol:
            raise LedgerMismatch(
                f"ledger cells sum to {self.total!r} but the run cost "
                f"{expected_total!r} (residual {residual:+.3e} > tol {tol:g})"
            )
        return residual

    # -- trace projection --------------------------------------------------
    def emit(self, tracer, ts: float) -> None:
        """Write one ``cat="cost"`` record per cell into a trace."""
        for c in self.rows():
            tracer.event(
                "cost",
                "cell",
                ts,
                job=c.job,
                node=c.node,
                category=c.category,
                dollars=c.dollars,
                charges=c.charges,
                linked=c.linked,
                linked_dollars=c.linked_dollars,
            )

    def __len__(self) -> int:
        return len(self.cells)


class RollingLedger:
    """Incremental dollar attribution, re-reconciled every epoch.

    The end-of-run :class:`DollarLedger` proves attribution adds up only
    *after* the run; a long-running service needs the same proof while it
    is still running.  A ``RollingLedger`` keeps a cursor into the
    authoritative :class:`~repro.cost.accounting.CostLedger` and folds the
    records appended since the last fold into the same
    ``job x node x category`` cells — per-cell amounts are retained so each
    cell's total is an exact ``fsum``.  :meth:`DollarLedger.from_cost_ledger`
    is one fold over the whole ledger, so the rolling cells are *equal* (not
    merely close) to the end-of-run ones.

    :meth:`reconcile` checks the rolling total against the running
    authoritative total within ``tol`` — but unlike the end-of-run check it
    must not kill a live service: drift is surfaced as a metric
    (``rolling_ledger_drift_total``) and a ``cat="ledger"`` trace event
    instead of an exception, and the largest residual ever seen is kept on
    :attr:`max_residual` for endpoint/gate consumption.
    """

    def __init__(self, tol: float = 1e-9) -> None:
        self.tol = tol
        self._cursor = 0
        self._amounts: Dict[CellKey, List[float]] = {}
        self._linked_amounts: Dict[CellKey, List[float]] = {}
        self._counts: Dict[CellKey, int] = {}
        self._cell_totals: Dict[CellKey, float] = {}
        self.folds = 0
        self.reconciliations = 0
        self.last_residual = 0.0
        self.max_residual = 0.0
        self.drift_events = 0

    # -- folding -------------------------------------------------------------
    def fold(self, ledger: CostLedger) -> int:
        """Fold records appended since the last fold; returns how many.

        Only cells touched by new records re-``fsum``, so a fold costs
        O(new records + touched cells), not O(run so far).
        """
        records = ledger.records
        touched: set = set()
        for r in records[self._cursor:]:
            node = r.machine_id if r.machine_id is not None else r.store_id
            key = (r.job_id, node, r.category)
            self._amounts.setdefault(key, []).append(r.amount)
            self._counts[key] = self._counts.get(key, 0) + 1
            if r.span_id is not None:
                self._linked_amounts.setdefault(key, []).append(r.amount)
            touched.add(key)
        folded = len(records) - self._cursor
        self._cursor = len(records)
        for key in touched:
            self._cell_totals[key] = math.fsum(self._amounts[key])
        if folded:
            self.folds += 1
        return folded

    @property
    def cursor(self) -> int:
        """Authoritative-ledger records folded so far."""
        return self._cursor

    @property
    def total(self) -> float:
        """Exact (fsum-of-fsums) total over every rolling cell."""
        return math.fsum(self._cell_totals.values())

    def to_dollar_ledger(self) -> DollarLedger:
        """Materialise the rolling cells as a :class:`DollarLedger`.

        Cell for cell equal to ``DollarLedger.from_cost_ledger`` over the
        folded prefix — the identity the determinism tests gate on.
        """
        cells = {
            key: LedgerCell(
                job=key[0],
                node=key[1],
                category=key[2],
                dollars=self._cell_totals[key],
                charges=self._counts[key],
                linked=len(self._linked_amounts.get(key, ())),
                linked_dollars=math.fsum(self._linked_amounts.get(key, ())),
            )
            for key in self._amounts
        }
        return DollarLedger(cells=cells)

    # -- the live invariant ---------------------------------------------------
    def reconcile(
        self, expected_total: float, tracer=None, ts: float = 0.0, epoch: Optional[int] = None
    ) -> float:
        """Check the rolling cells re-sum to ``expected_total`` within tol.

        Returns the signed residual.  Drift does **not** raise — a live
        service must keep scheduling — it is counted, traced and latched
        instead; callers (the soak gate, the CI smoke) fail the *run* on
        ``max_residual`` afterwards.
        """
        residual = self.total - expected_total
        self.reconciliations += 1
        self.last_residual = residual
        self.max_residual = max(self.max_residual, abs(residual))
        if abs(residual) > self.tol:
            self.drift_events += 1
            from repro.obs.registry import current_registry

            registry = current_registry()
            if registry is not None:
                registry.counter(
                    "rolling_ledger_drift_total",
                    help="rolling-ledger reconciliations exceeding tolerance",
                ).inc()
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "ledger",
                    "drift",
                    ts,
                    epoch=epoch,
                    residual=residual,
                    rolling_total=self.total,
                    expected_total=expected_total,
                )
        return residual

    def __len__(self) -> int:
        return len(self._amounts)


def emit_run_summary(
    tracer,
    *,
    ts: float,
    scheduler: str,
    total_cost: float,
    makespan: float,
    **attrs,
) -> None:
    """Write the ``cat="summary"`` record closing a traced run.

    Carries the headline quantities ``repro diff`` compares, so the trace
    file alone supports regression gating.  Extra keyword attrs (task
    counts, LP totals, moved MB) ride along verbatim.
    """
    tracer.event(
        "summary",
        "run",
        ts,
        scheduler=scheduler,
        total_cost=total_cost,
        makespan=makespan,
        **attrs,
    )


def summary_from_trace(records: Iterable[dict]) -> Optional[dict]:
    """The run's ``cat="summary"`` record, or None for pre-ledger traces."""
    for r in records:
        if r.get("cat") == "summary" and r.get("name") == "run":
            return r
    return None
