"""The flow-analysis driver: paths → symbol table → call graph → passes.

:func:`analyze_paths` is the one call sites use (CLI, CI, tests): it parses
every ``.py`` under the given paths, builds the program view, resolves the
entry-point specs, runs the determinism / concurrency / units passes and
applies the repo baseline.  The result is a :class:`FlowReport` carrying
the surviving findings plus the program-view statistics the JSON output
exposes (so CI logs show *what* was analyzed, not just what was found).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, errors
from repro.lint.flow.baseline import BaselineEntry, apply_baseline, load_baseline
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.concurrency import run_concurrency_pass
from repro.lint.flow.determinism import run_determinism_pass
from repro.lint.flow.symbols import SymbolTable, build_symbol_table
from repro.lint.flow.units import run_units_pass

#: The simulation/solve/service roots whose transitive closure must be
#: deterministic.  Specs are dotted suffixes resolved against the symbol
#: table (see :meth:`SymbolTable.resolve_suffix`).  ``run_soak`` covers
#: every soak target's scenario and fault code plus the whole service path
#: — admission, ticks, WAL replay — so any ambient RNG or wall-clock read
#: there breaks seeded replay and must surface as FLOW001/002.
DEFAULT_ENTRY_POINTS: Tuple[str, ...] = (
    "HadoopSimulator.run",
    "solve_co_online",
    "EpochController.run",
    "run_soak",
)


@dataclass
class FlowReport:
    """Everything one flow-analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: findings swallowed by the baseline (still visible for auditing)
    baselined: List[Finding] = field(default_factory=list)
    #: baseline entries that matched nothing — must be deleted
    stale: List[BaselineEntry] = field(default_factory=list)
    #: entry spec -> resolved function qnames (empty list = unresolved)
    entry_points: Dict[str, List[str]] = field(default_factory=dict)
    num_modules: int = 0
    num_functions: int = 0
    num_edges: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing should gate: no findings, no stale entries."""
        return not self.findings and not self.stale

    def summary(self) -> str:
        """One-line human summary for CLI/CI logs."""
        n_err = len(errors(self.findings))
        n_warn = len(self.findings) - n_err
        bits = [
            f"{self.num_modules} module(s), {self.num_functions} function(s), "
            f"{self.num_edges} edge(s)",
            f"{len(self.findings)} finding(s): {n_err} error(s), {n_warn} warning(s)",
        ]
        if self.baselined:
            bits.append(f"{len(self.baselined)} baselined")
        if self.stale:
            bits.append(f"{len(self.stale)} STALE baseline entr(y/ies)")
        return "; ".join(bits)

    def to_json(self) -> str:
        """The ``--format json`` document (superset of the plain lint one)."""
        payload = {
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(errors(self.findings)),
            "warnings": len(self.findings) - len(errors(self.findings)),
            "flow": {
                "entry_points": self.entry_points,
                "modules": self.num_modules,
                "functions": self.num_functions,
                "edges": self.num_edges,
                "baselined": [f.to_dict() for f in self.baselined],
                "stale_baseline": [
                    {"rule": e.rule, "path": e.path, "symbol": e.symbol}
                    for e in self.stale
                ],
            },
        }
        return json.dumps(payload, indent=2)


def resolve_entry_points(
    table: SymbolTable, specs: Sequence[str]
) -> Dict[str, List[str]]:
    """Resolve dotted entry specs to function qnames (empty = unresolved)."""
    return {spec: table.resolve_suffix(spec) for spec in specs}


def analyze(
    table: SymbolTable,
    graph: Optional[CallGraph] = None,
    entry_points: Sequence[str] = DEFAULT_ENTRY_POINTS,
) -> FlowReport:
    """Run all three passes over an already-built program view."""
    if graph is None:
        graph = build_call_graph(table)
    resolved = resolve_entry_points(table, entry_points)
    findings: List[Finding] = []
    findings.extend(run_determinism_pass(graph, resolved))
    findings.extend(run_concurrency_pass(graph))
    findings.extend(run_units_pass(graph))
    findings.sort(key=lambda f: (f.location or "", f.line or 0, f.rule))
    return FlowReport(
        findings=findings,
        entry_points=resolved,
        num_modules=len(table.modules),
        num_functions=len(table.functions),
        num_edges=graph.num_edges,
    )


def analyze_paths(
    paths: Iterable[Path],
    entry_points: Sequence[str] = DEFAULT_ENTRY_POINTS,
    baseline: Optional[Path] = None,
) -> FlowReport:
    """Parse ``paths``, run the passes, and apply an optional baseline.

    ``baseline`` may point at a missing file (treated as empty); malformed
    files raise :class:`repro.lint.flow.baseline.BaselineError`.
    """
    table = build_symbol_table(paths)
    report = analyze(table, entry_points=entry_points)
    if baseline is not None:
        entries = load_baseline(baseline)
        kept, baselined, stale = apply_baseline(report.findings, entries)
        report.findings = kept
        report.baselined = baselined
        report.stale = stale
    return report
