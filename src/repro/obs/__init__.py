"""Observability: metrics registry, structured tracing, LP solve profiling.

Three complementary views of a run, all zero-cost when disabled:

* :mod:`repro.obs.registry` — counters/gauges/histograms with labels;
  :class:`~repro.hadoop.metrics.SimMetrics` keeps its scalar fields on one.
* :mod:`repro.obs.trace` — JSONL span/event records of the simulated
  timeline (task attempts, transfers, epochs, LP solves).
* :mod:`repro.obs.lpprof` — per-solve LP profiles (shape, wall time,
  iterations, status) on the shared backend path.
* :mod:`repro.obs.spans` — causal identity (``span_id``/``parent``/
  ``links``) and the :class:`SpanIndex` DAG view over a loaded trace.
* :mod:`repro.obs.critpath` — critical-path extraction with a complete
  per-kind makespan decomposition.
* :mod:`repro.obs.ledger` — the dollar-attribution ledger, reconciled
  exactly against the simulator's cost totals.
* :mod:`repro.obs.diff` — trace-vs-trace regression gating
  (``python -m repro diff A B``).
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSONL loading, the
  Chrome trace-event projection and text report rendering.
* :mod:`repro.obs.live` / :mod:`repro.obs.top` — the live HTTP plane
  (``/metrics``, ``/healthz``, ``/statusz``, ``/trace``) a running
  ``--live-port`` process serves, and the ``repro top`` dashboard over it.

CLI: ``python -m repro <experiment> --trace t.jsonl --metrics m.json`` then
``python -m repro report t.jsonl`` / ``python -m repro diff a.jsonl b.jsonl``.
"""

from repro.obs.critpath import CriticalPath, CritPathError, Segment, critical_path
from repro.obs.diff import DiffEntry, TraceDiff, diff_traces, stats_from_trace
from repro.obs.ledger import (
    DollarLedger,
    LedgerCell,
    LedgerMismatch,
    summary_from_trace,
)
from repro.obs.lpprof import LPProfile, LPSolveRecord
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from repro.obs.spans import PlanLinks, SpanIndex
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, current_tracer, use_tracer

__all__ = [
    "Counter",
    "CritPathError",
    "CriticalPath",
    "DiffEntry",
    "DollarLedger",
    "Gauge",
    "Histogram",
    "LPProfile",
    "LPSolveRecord",
    "LedgerCell",
    "LedgerMismatch",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PlanLinks",
    "Segment",
    "SpanIndex",
    "TraceDiff",
    "Tracer",
    "critical_path",
    "current_registry",
    "current_tracer",
    "diff_traces",
    "stats_from_trace",
    "summary_from_trace",
    "use_registry",
    "use_tracer",
]
