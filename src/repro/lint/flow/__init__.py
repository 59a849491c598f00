"""Whole-program static analysis for the LiPS reproduction: ``repro.lint.flow``.

Where :mod:`repro.lint.rules` checks one module at a time, this package
builds a *program-level* view of ``src/repro`` — a module symbol table
(:mod:`repro.lint.flow.symbols`) and an interprocedural call graph
(:mod:`repro.lint.flow.callgraph`) — and runs two passes over it:

* **determinism** (:mod:`repro.lint.flow.determinism`, ``FLOW001``,
  ``FLOW002``, ``FLOW103``) — ambient/unseeded RNG and wall-clock reads in
  any function reachable from the simulation/solve entry points
  (``HadoopSimulator.run``, ``epoch.plan_epoch``, ``EpochController.run``,
  ``run_soak``), and process-pool tasks that draw from ambient RNG;
* **units** (:mod:`repro.lint.flow.units`, ``FLOW201``) — a lightweight
  abstract interpretation propagating dollars/seconds/megabytes/CPU-second
  tags from :mod:`repro.units`-annotated sources and flagging cross-unit
  ``+``/``-``/comparison arithmetic.

Findings flow through the shared :class:`repro.lint.findings.Finding`
vocabulary and honour the same per-line suppressions (``# lint:
ok=FLOW201``).  ``python -m repro lint`` runs these passes in the same
process, over the same parsed trees, as the per-module rules
(:func:`repro.lint.runner.lint_all`).
"""

from __future__ import annotations

from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.engine import (
    DEFAULT_ENTRY_POINTS,
    FlowReport,
    analyze,
    analyze_paths,
)
from repro.lint.flow.symbols import SymbolTable, build_symbol_table

__all__ = [
    "CallGraph",
    "DEFAULT_ENTRY_POINTS",
    "FlowReport",
    "SymbolTable",
    "analyze",
    "analyze_paths",
    "build_call_graph",
    "build_symbol_table",
]
