"""The flow-analysis driver: symbol table → call graph → passes.

:func:`analyze` runs the determinism and units passes over an already
built program view; :func:`repro.lint.runner.lint_all` hands it the trees
it parsed for the per-module rules, so one ``python -m repro lint`` parses
each file once.  :func:`analyze_paths` parses and analyzes in one call, for
tests and callers that need custom entry points.  The result is a
:class:`FlowReport` carrying the findings plus the program-view statistics
the JSON output exposes (so CI logs show *what* was analyzed, not just
what was found).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding, errors
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.determinism import run_determinism_pass
from repro.lint.flow.symbols import SymbolTable, build_symbol_table
from repro.lint.flow.units import run_units_pass

#: The simulation/solve/service roots whose transitive closure must be
#: deterministic.  Specs are dotted suffixes resolved against the symbol
#: table (see :meth:`SymbolTable.resolve_suffix`).  ``run_soak`` covers
#: every soak target's scenario and fault code plus the whole service path
#: — admission, ticks, WAL replay — so any ambient RNG or wall-clock read
#: there breaks seeded replay and must surface as FLOW001/002.
#: ``epoch.plan_epoch`` is the epoch step both LiPS drivers share: its
#: closure holds the online LP and the greedy degraded plan.
DEFAULT_ENTRY_POINTS: Tuple[str, ...] = (
    "HadoopSimulator.run",
    "epoch.plan_epoch",
    "EpochController.run",
    "run_soak",
)


@dataclass
class FlowReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    #: entry spec -> resolved function qnames (empty list = unresolved)
    entry_points: Dict[str, List[str]] = field(default_factory=dict)
    num_modules: int = 0
    num_functions: int = 0
    num_edges: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing should gate: no findings."""
        return not self.findings

    def summary(self) -> str:
        """One-line program-view summary for CLI/CI logs."""
        return (
            f"analyzed {self.num_modules} module(s), {self.num_functions} "
            f"function(s), {self.num_edges} edge(s)"
        )

    def to_json(self) -> str:
        """The ``--format json`` document: findings plus the program view."""
        payload = {
            "findings": [f.to_dict() for f in self.findings],
            "errors": len(errors(self.findings)),
            "warnings": len(self.findings) - len(errors(self.findings)),
            "flow": {
                "entry_points": self.entry_points,
                "modules": self.num_modules,
                "functions": self.num_functions,
                "edges": self.num_edges,
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
    """Run the determinism and units passes over a built program view."""
    if graph is None:
        graph = build_call_graph(table)
    resolved = resolve_entry_points(table, entry_points)
    findings: List[Finding] = []
    findings.extend(run_determinism_pass(graph, resolved))
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
    paths: Iterable[Path], entry_points: Sequence[str] = DEFAULT_ENTRY_POINTS
) -> FlowReport:
    """Parse ``paths`` and run the flow passes (no per-module or model rules)."""
    return analyze(build_symbol_table(paths), entry_points=entry_points)
