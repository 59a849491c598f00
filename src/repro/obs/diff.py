"""Trace diff: compare two runs and gate on regressions.

Backs ``python -m repro diff BASE CANDIDATE``: load two JSONL traces (each
written with ``--trace`` and carrying the end-of-run ``cost``/``summary``
records, see :mod:`repro.obs.ledger`), reduce each to a flat stat vector,
and compare stat by stat.  A *gated* stat whose relative increase exceeds
its threshold is a regression: the CLI prints the table and exits non-zero.

Gated stats and default thresholds:

* ``total_cost`` — +5 % dollars
* ``makespan`` — +10 % simulated seconds
* ``lp_iterations`` — +50 % simplex iterations (the one solver-side
  quantity cheap enough to be stable across machines)

Everything else (per-category dollars, critical-path decomposition, task
counts, LP solve counts) is reported as context but never gates: wall-clock
stats vary across machines and would make the gate flaky.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.critpath import CritPathError, critical_path
from repro.obs.ledger import DollarLedger, summary_from_trace

#: Default relative-increase gates (candidate vs base).
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "total_cost": 0.05,
    "makespan": 0.10,
    "lp_iterations": 0.50,
}


@dataclass(frozen=True)
class DiffEntry:
    """One compared stat."""

    stat: str
    base: float
    candidate: float
    #: relative increase gate; None = informational only
    threshold: Optional[float] = None

    @property
    def delta(self) -> float:
        """Absolute change (candidate - base)."""
        return self.candidate - self.base

    @property
    def relative(self) -> float:
        """Relative change; +inf when appearing from a zero base."""
        if self.base != 0:
            return self.delta / abs(self.base)
        return math.inf if self.candidate > 0 else 0.0

    @property
    def regressed(self) -> bool:
        """True when the stat is gated and grew past its threshold."""
        return self.threshold is not None and self.relative > self.threshold


@dataclass
class TraceDiff:
    """The full comparison of two traces."""

    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        """Gated entries that regressed."""
        return [e for e in self.entries if e.regressed]

    @property
    def ok(self) -> bool:
        """True when no gated stat regressed."""
        return not self.regressions

    def render(self) -> str:
        """ASCII comparison table, regressions flagged."""
        lines = [
            f"{'stat':<32} {'base':>14} {'candidate':>14} {'change':>10}  gate"
        ]
        for e in self.entries:
            rel = (
                f"{100 * e.relative:+.1f}%"
                if math.isfinite(e.relative)
                else ("  +new" if e.candidate > 0 else "   0%")
            )
            gate = "-"
            if e.threshold is not None:
                gate = f"+{100 * e.threshold:.0f}%"
                if e.regressed:
                    gate += "  REGRESSED"
            lines.append(
                f"{e.stat:<32} {e.base:>14.6g} {e.candidate:>14.6g} {rel:>10}  {gate}"
            )
        verdict = "OK" if self.ok else f"{len(self.regressions)} regression(s)"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly projection (``--json`` output)."""
        return {
            "ok": self.ok,
            "entries": [
                {
                    "stat": e.stat,
                    "base": e.base,
                    "candidate": e.candidate,
                    "delta": e.delta,
                    "relative": e.relative if math.isfinite(e.relative) else None,
                    "threshold": e.threshold,
                    "regressed": e.regressed,
                }
                for e in self.entries
            ],
        }


def stats_from_trace(records: Iterable[dict]) -> Dict[str, float]:
    """Reduce a loaded trace to the flat stat vector ``diff`` compares.

    Works best on traces carrying the end-of-run ``summary``/``cost``
    records; older traces degrade gracefully (makespan falls back to the
    last task-attempt end, dollar stats are absent).
    """
    records = list(records)
    out: Dict[str, float] = {}
    summary = summary_from_trace(records)
    if summary is not None:
        for key in ("total_cost", "makespan", "tasks_run", "moved_mb", "lp_solves"):
            if key in summary:
                out[key] = float(summary[key])
    else:
        ends = [
            r["ts"] + r.get("dur", 0.0)
            for r in records
            if r.get("type") == "span" and r.get("cat") == "task"
        ]
        if ends:
            out["makespan"] = max(ends)
    ledger = DollarLedger.from_trace(records)
    if len(ledger):
        out.setdefault("total_cost", ledger.total)
        for category, dollars in ledger.by_category().items():
            out[f"cost.{category}"] = dollars
    solves = [r for r in records if r.get("type") == "lp_solve"]
    if solves:
        out.setdefault("lp_solves", float(len(solves)))
        out["lp_iterations"] = float(sum(int(s.get("iterations", 0)) for s in solves))
    try:
        path = critical_path(records)
    except CritPathError:
        path = None
    if path is not None and path.segments:
        for kind, seconds in path.by_kind().items():
            out[f"critpath.{kind}"] = seconds
    return out


def diff_traces(
    base: Iterable[dict],
    candidate: Iterable[dict],
    thresholds: Optional[Dict[str, float]] = None,
) -> TraceDiff:
    """Compare two loaded traces stat by stat.

    ``thresholds`` overrides/extends :data:`DEFAULT_THRESHOLDS` (map a stat
    to ``None`` to un-gate it).  Stats present in only one trace compare
    against 0.
    """
    gates = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        gates.update(thresholds)
    a = stats_from_trace(base)
    b = stats_from_trace(candidate)
    entries = []
    for stat in sorted(set(a) | set(b)):
        entries.append(
            DiffEntry(
                stat=stat,
                base=a.get(stat, 0.0),
                candidate=b.get(stat, 0.0),
                threshold=gates.get(stat),
            )
        )
    return TraceDiff(entries=entries)
