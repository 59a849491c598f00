"""Whole-program static analysis for the LiPS reproduction: ``repro.flow``.

Where :mod:`repro.lint.rules` checks one module at a time, this package
builds a *program-level* view of ``src/repro`` — a module symbol table
(:mod:`repro.lint.flow.symbols`) and an interprocedural call graph
(:mod:`repro.lint.flow.callgraph`) — and runs three dataflow passes over it:

* **determinism** (:mod:`repro.lint.flow.determinism`, ``FLOW001-003``) —
  ambient/unseeded RNG, wall-clock reads and order-unstable iteration in
  any function reachable from the simulation/solve entry points
  (``HadoopSimulator.run``, ``solve_co_online``, ``EpochController.run``);
* **concurrency** (:mod:`repro.lint.flow.concurrency`, ``FLOW102-103``) —
  process-pool task purity and seed-carrying checks (the dataflow-backed
  upgrade of syntactic rule ``AST006``);
* **units** (:mod:`repro.lint.flow.units`, ``FLOW201``) — a lightweight
  abstract interpretation propagating dollars/seconds/megabytes/CPU-second
  tags from :mod:`repro.units`-annotated sources and flagging cross-unit
  ``+``/``-``/comparison arithmetic.

Findings flow through the shared :class:`repro.lint.findings.Finding`
vocabulary, honour the same per-line suppressions (``# lint: ok=FLOW102``)
and can be grandfathered in a repo-root baseline file
(:mod:`repro.lint.flow.baseline`).  CLI: ``python -m repro lint --flow``.
"""

from __future__ import annotations

from repro.lint.flow.baseline import (
    BaselineEntry,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.flow.callgraph import CallGraph, build_call_graph
from repro.lint.flow.engine import (
    DEFAULT_ENTRY_POINTS,
    FlowReport,
    analyze,
    analyze_paths,
)
from repro.lint.flow.symbols import SymbolTable, build_symbol_table

__all__ = [
    "BaselineEntry",
    "CallGraph",
    "DEFAULT_ENTRY_POINTS",
    "FlowReport",
    "SymbolTable",
    "analyze",
    "analyze_paths",
    "apply_baseline",
    "build_call_graph",
    "build_symbol_table",
    "load_baseline",
    "write_baseline",
]
