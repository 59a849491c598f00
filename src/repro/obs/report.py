"""Render a JSONL trace into per-epoch, per-machine and per-solve tables.

Backs ``python -m repro report PATH``: load a trace written with
``--trace``, aggregate it three ways, and print ASCII tables — the
"where did the time and dollars go" view the paper's Figures 8 and 11 are
built from.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.report import format_table
from repro.obs.export import load_jsonl, summary


def epoch_table(records: List[dict]) -> str:
    """Per-epoch table: queue depth, planning outcome, cost delta."""
    spans = [r for r in records if r.get("type") == "span" and r.get("cat") == "epoch"]
    if not spans:
        return "no epoch spans in trace"
    headers = [
        "epoch", "t start", "queued", "planned", "parked", "cost delta $",
        "moved MB", "lp solves", "lp wall ms",
    ]
    rows = []
    for i, s in enumerate(spans):
        rows.append(
            (
                s.get("index", i),
                f"{s.get('ts', 0.0):.0f}",
                s.get("queued", s.get("queue_depth", "")),
                s.get("planned", s.get("scheduled", "")),
                s.get("parked", s.get("requeued", "")),
                f"{s.get('cost_delta', 0.0):.4f}",
                f"{s.get('moved_mb', 0.0):.0f}",
                s.get("lp_solves", ""),
                f"{1e3 * s.get('lp_wall_s', 0.0):.1f}",
            )
        )
    return format_table(headers, rows, title="Per-epoch")


def machine_table(records: List[dict]) -> str:
    """Per-machine table: attempts, busy seconds, MB read by tier."""
    per: Dict[int, Dict[str, float]] = {}

    def bucket(machine) -> Dict[str, float]:
        return per.setdefault(
            int(machine),
            {
                "attempts": 0, "kills": 0, "busy_s": 0.0, "read_mb": 0.0, "remote_mb": 0.0,
            },
        )

    for r in records:
        cat, name = r.get("cat"), r.get("name")
        if r.get("type") == "span" and cat == "task" and r.get("machine") is not None:
            b = bucket(r["machine"])
            b["attempts"] += 1
            b["busy_s"] += r.get("dur", 0.0)
        elif cat == "task" and name == "kill" and r.get("machine") is not None:
            bucket(r["machine"])["kills"] += 1
        elif cat == "transfer" and name == "read" and r.get("machine") is not None:
            b = bucket(r["machine"])
            b["read_mb"] += r.get("mb", 0.0)
            if r.get("tier") not in (None, "local"):
                b["remote_mb"] += r.get("mb", 0.0)
    if not per:
        return "no task records in trace"
    headers = ["machine", "maps", "kills", "busy s", "read MB", "non-local MB"]
    rows = [
        (
            m, int(b["attempts"]), int(b["kills"]),
            f"{b['busy_s']:.0f}", f"{b['read_mb']:.0f}", f"{b['remote_mb']:.0f}",
        )
        for m, b in sorted(per.items())
    ]
    return format_table(headers, rows, title="Per-machine")


def solve_table(records: List[dict], limit: Optional[int] = 40) -> str:
    """Per-solve table: model shape, wall time, status."""
    solves = [r for r in records if r.get("type") == "lp_solve"]
    if not solves:
        return "no LP solve records in trace"
    headers = [
        "t", "model", "backend", "rows", "cols", "nnz", "iters", "wall ms",
        "status",
    ]
    shown = solves if limit is None or len(solves) <= limit else solves[:limit]
    rows = []
    for s in shown:
        rows.append(
            (
                f"{s.get('ts', 0.0):.0f}",
                s.get("name", "?"),
                s.get("backend", "?"),
                int(s.get("rows_ub", 0)) + int(s.get("rows_eq", 0)),
                s.get("cols", 0),
                s.get("nnz", 0),
                s.get("iterations", 0),
                f"{1e3 * s.get('wall_s', 0.0):.2f}",
                s.get("status", "?"),
            )
        )
    title = "Per-solve"
    if len(shown) < len(solves):
        title += f" (first {len(shown)} of {len(solves)})"
    table = format_table(headers, rows, title=title)
    wall = sum(s.get("wall_s", 0.0) for s in solves)
    iters = sum(int(s.get("iterations", 0)) for s in solves)
    quantile_line = ""
    latencies = [s.get("wall_s") for s in solves if s.get("wall_s") is not None]
    if latencies:
        # the same bucket-interpolated estimator the live SLO view (in
        # /healthz) uses, so a post-hoc report and a mid-run scrape agree
        from repro.obs.registry import Histogram

        hist = Histogram("report_solve_wall_seconds")
        for value in latencies:
            hist.observe(float(value))
        quantile_line = "\nwall latency: " + ", ".join(
            f"p{int(q * 100)}={1e3 * hist.quantile(q):.2f} ms"
            for q in (0.5, 0.95, 0.99)
        )
    return (
        f"{table}\n"
        f"total: {len(solves)} solves, {1e3 * wall:.1f} ms wall, {iters} iterations"
        f"{quantile_line}"
    )


def resilience_table(records: List[dict]) -> Optional[str]:
    """Solver failures/retries/fallbacks, degraded epochs, chaos faults.

    Returns None when the trace contains no resilience activity at all, so
    healthy-run reports stay unchanged.
    """
    failures: Dict[tuple, int] = {}
    retries: Dict[str, int] = {}
    fallbacks: Dict[tuple, int] = {}
    degraded = 0
    chaos: Dict[str, int] = {}
    for r in records:
        cat, name = r.get("cat"), r.get("name")
        if cat == "solver":
            if name == "failure":
                key = (str(r.get("backend", "?")), str(r.get("kind", "?")))
                failures[key] = failures.get(key, 0) + 1
            elif name == "retry":
                backend = str(r.get("backend", "?"))
                retries[backend] = retries.get(backend, 0) + 1
            elif name == "fallback":
                key = (str(r.get("from_backend", "?")), str(r.get("to_backend", "?")))
                fallbacks[key] = fallbacks.get(key, 0) + 1
        elif cat == "epoch" and name == "degraded":
            degraded += 1
        elif cat == "chaos" and name == "inject":
            kind = str(r.get("kind", "?"))
            chaos[kind] = chaos.get(kind, 0) + 1
    if not (failures or retries or fallbacks or degraded or chaos):
        return None
    rows = []
    for (backend, kind), n in sorted(failures.items()):
        rows.append(("solve failure", f"{backend} [{kind}]", n))
    for backend, n in sorted(retries.items()):
        rows.append(("retry", backend, n))
    for (src, dst), n in sorted(fallbacks.items()):
        rows.append(("fallback", f"{src} -> {dst}", n))
    if degraded:
        rows.append(("degraded epoch", "greedy heuristic", degraded))
    for kind, n in sorted(chaos.items()):
        rows.append(("chaos fault", kind, n))
    return format_table(["event", "detail", "count"], rows, title="Resilience")


def service_table(records: List[dict]) -> Optional[str]:
    """Service-mode activity: health transitions, sheds, recoveries.

    Returns None for traces without ``cat="service"`` events, so batch-run
    reports stay unchanged.
    """
    transitions: List[dict] = []
    sheds: Dict[str, int] = {}
    recoveries: List[dict] = []
    for r in records:
        if r.get("cat") != "service":
            continue
        name = r.get("name")
        if name == "transition":
            transitions.append(r)
        elif name == "shed":
            reason = str(r.get("reason", "?"))
            sheds[reason] = sheds.get(reason, 0) + 1
        elif name == "recovered":
            recoveries.append(r)
    if not (transitions or sheds or recoveries):
        return None
    rows = []
    for t in transitions:
        rows.append(
            (
                "transition",
                f"{t.get('src', '?')} -> {t.get('dst', '?')} "
                f"@ epoch {t.get('epoch', '?')}",
                str(t.get("reason", "")),
            )
        )
    for reason, n in sorted(sheds.items()):
        rows.append(("shed", reason, f"{n} job(s)"))
    for r in recoveries:
        rows.append(
            (
                "recovered",
                f"snapshot seq {r.get('snapshot_seq', '?')}",
                f"{r.get('replayed', '?')} WAL record(s) replayed",
            )
        )
    return format_table(["event", "detail", "note"], rows, title="Service")


def cost_table(records: List[dict]) -> Optional[str]:
    """Dollar-attribution table from the trace's ledger cells.

    Returns None for traces written before the end-of-run ledger records
    existed, so old-trace reports stay unchanged.
    """
    from repro.obs.ledger import DollarLedger

    ledger = DollarLedger.from_trace(records)
    if not len(ledger):
        return None
    rows = [
        (
            "-" if c.job is None else c.job,
            "-" if c.node is None else c.node,
            c.category,
            f"{c.dollars:.6f}",
            c.charges,
            f"{100 * (c.linked_dollars / c.dollars if c.dollars else 1.0):.0f}%",
        )
        for c in ledger.rows()
    ]
    rows.append(("", "", "total", f"{ledger.total:.6f}", "", ""))
    return format_table(
        ["job", "node", "category", "dollars", "charges", "span-linked"],
        rows,
        title="Dollar attribution",
    )


def critpath_section(records: List[dict]) -> Optional[str]:
    """Critical-path rendering, or None when the trace has no causal spans."""
    from repro.obs.critpath import CritPathError, critical_path

    try:
        path = critical_path(records)
    except CritPathError as exc:
        return f"critical path: unavailable ({exc})"
    if not path.segments:
        return None
    return path.render()


def render(path, limit: Optional[int] = 40) -> str:
    """Render a full trace report (summary + the tables)."""
    records = load_jsonl(path)
    parts = [
        f"trace: {path} ",
        summary(records),
        "",
        epoch_table(records),
        "",
        solve_table(records, limit=limit),
        "",
        machine_table(records),
    ]
    for extra in (
        cost_table(records),
        critpath_section(records),
        resilience_table(records),
        service_table(records),
    ):
        if extra is not None:
            parts.extend(["", extra])
    return "\n".join(parts)
