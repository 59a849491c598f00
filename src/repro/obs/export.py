"""Trace exporters: JSONL loading, Chrome trace-event format, text summary.

The JSONL stream written by :class:`~repro.obs.trace.Tracer` is the
ground-truth format.  This module loads it back and re-projects it:

* :func:`to_chrome_trace` — the Chrome trace-event JSON loadable in
  ``chrome://tracing`` / Perfetto: one timeline lane per machine (task
  attempts), plus lanes for epochs and LP solves;
* :func:`summary` — a compact text report of a trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Union

from repro.obs.trace import json_default

PathLike = Union[str, Path]

#: Synthetic Chrome "thread" lanes for non-machine records.
EPOCH_LANE = 1_000_000
LP_LANE = 1_000_001
MISC_LANE = 1_000_002

#: Seconds -> microseconds (Chrome trace timestamps are in us).
_US = 1e6


def load_jsonl(path: PathLike) -> List[dict]:
    """Load a JSONL trace file into a list of records."""
    records: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def write_jsonl(records: Iterable[dict], path: PathLike) -> Path:
    """Write records as JSONL; returns the path."""
    path = Path(path)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":"), default=json_default))
            fh.write("\n")
    return path


def _lane(record: dict) -> int:
    """Chrome tid for a record: machine lane or a synthetic lane."""
    if record.get("cat") == "epoch":
        return EPOCH_LANE
    if record.get("type") == "lp_solve" or record.get("cat") == "lp":
        return LP_LANE
    machine = record.get("machine")
    if machine is not None:
        return int(machine)
    return MISC_LANE


_ENVELOPE = ("type", "cat", "name", "ts", "dur")


def _args(record: dict) -> dict:
    """Every non-envelope attribute, preserved verbatim."""
    return {k: v for k, v in record.items() if k not in _ENVELOPE}


def to_chrome_trace(records: Iterable[dict], pid: int = 1) -> dict:
    """Project trace records into Chrome trace-event JSON.

    Spans become complete (``ph: X``) events, instants become instant
    (``ph: i``) events, and LP solves become complete events on their own
    lane whose duration is the solve's *wall* time (the one real-clock
    quantity in a trace).  Causal identity (``parent``/``links``, see
    :mod:`repro.obs.spans`) is rendered as Chrome flow-event arrows
    (``ph: s``/``f``) between the lanes, one flow per causal edge — the
    ``span_id``/``parent``/``links`` attributes themselves also survive
    verbatim in ``args``.
    """
    records = list(records)
    events: List[dict] = []
    lanes: Dict[int, str] = {}
    for record in records:
        lane = _lane(record)
        if lane not in lanes:
            if lane == EPOCH_LANE:
                lanes[lane] = "epochs"
            elif lane == LP_LANE:
                lanes[lane] = "lp solves"
            elif lane == MISC_LANE:
                lanes[lane] = "misc"
            else:
                lanes[lane] = f"machine {lane}"
        base = {
            "name": f"{record.get('cat', '?')}:{record.get('name', '?')}",
            "cat": record.get("cat", "?"),
            "pid": pid,
            "tid": lane,
            "ts": float(record.get("ts", 0.0)) * _US,
            "args": _args(record),
        }
        kind = record.get("type")
        if kind == "span":
            base["ph"] = "X"
            base["dur"] = float(record.get("dur", 0.0)) * _US
        elif kind == "lp_solve":
            base["ph"] = "X"
            base["dur"] = float(record.get("wall_s", 0.0)) * _US
        else:
            base["ph"] = "i"
            base["s"] = "t"
        events.append(base)
    events.extend(_flow_events(records, pid))
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for tid, label in sorted(lanes.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _flow_events(records: List[dict], pid: int) -> List[dict]:
    """Chrome flow arrows for every parent/links causal edge."""
    located: Dict[int, dict] = {}
    for record in records:
        sid = record.get("span_id")
        if sid is not None:
            located[int(sid)] = record
    flows: List[dict] = []
    flow_id = 0
    for record in records:
        dst = record.get("span_id")
        if dst is None:
            continue
        sources = []
        if record.get("parent") is not None:
            sources.append(int(record["parent"]))
        sources.extend(int(x) for x in record.get("links") or ())
        for src_id in sources:
            src = located.get(src_id)
            if src is None:
                continue
            flow_id += 1
            flows.append(
                {
                    "name": "causal",
                    "cat": "causal",
                    "ph": "s",
                    "id": flow_id,
                    "pid": pid,
                    "tid": _lane(src),
                    "ts": float(src.get("ts", 0.0)) * _US,
                }
            )
            flows.append(
                {
                    "name": "causal",
                    "cat": "causal",
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": pid,
                    "tid": _lane(record),
                    "ts": float(record.get("ts", 0.0)) * _US,
                }
            )
    return flows


def write_chrome_trace(records: Iterable[dict], path: PathLike) -> Path:
    """Write the Chrome trace-event JSON for ``records``; returns the path."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(to_chrome_trace(records), fh, default=json_default)
        fh.write("\n")
    return path


def summary(records: List[dict]) -> str:
    """One-paragraph text summary of a trace (record mix + headline totals)."""
    by_type: Dict[str, int] = {}
    by_cat: Dict[str, int] = {}
    for r in records:
        by_type[r.get("type", "?")] = by_type.get(r.get("type", "?"), 0) + 1
        by_cat[r.get("cat", "?")] = by_cat.get(r.get("cat", "?"), 0) + 1
    solves = [r for r in records if r.get("type") == "lp_solve"]
    lp_wall = sum(r.get("wall_s", 0.0) for r in solves)
    attempts = [
        r for r in records if r.get("type") == "span" and r.get("cat") == "task"
    ]
    end = max((r.get("ts", 0.0) + r.get("dur", 0.0) for r in records), default=0.0)
    lines = [
        f"{len(records)} records "
        + "("
        + ", ".join(f"{k}={v}" for k, v in sorted(by_type.items()))
        + ")",
        "categories: " + ", ".join(f"{k}={v}" for k, v in sorted(by_cat.items())),
        f"task attempts: {len(attempts)}",
        f"lp solves: {len(solves)} ({lp_wall * 1e3:.1f} ms wall)",
        f"trace horizon: {end:.1f} simulated s",
    ]
    return "\n".join(lines)
