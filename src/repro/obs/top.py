"""``repro top``: a refreshing terminal dashboard over the live endpoint.

Polls a :mod:`repro.obs.live` endpoint's ``/statusz`` (everything ``top``
needs in one request: scalar metrics and the ``/healthz`` body, SLO view
included) and redraws a compact dashboard — service state, epochs and
cost per second, backlog, admission shed, rolling-ledger reconciliation,
SLO budget meters and solve-latency quantiles.

Rendering is separated from polling: :func:`render_status` is a pure
function of two ``/statusz`` payloads (current + previous) and the poll
interval — rates difference the two payloads — so tests drive it with
dicts and never open a socket.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import IO, Optional

from repro.experiments.report import format_table, meter, percent

#: ANSI: clear screen + home the cursor (the refresh between frames).
CLEAR = "\x1b[2J\x1b[H"


def fetch_status(url: str, timeout: float = 2.0) -> dict:
    """GET ``{url}/statusz`` and decode it; raises ``URLError`` on failure."""
    with urllib.request.urlopen(f"{url.rstrip('/')}/statusz", timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _metric_total(status: dict, name: str) -> float:
    """Sum one scalar metric across its label sets (0.0 when absent)."""
    return sum(status.get("metrics", {}).get(name, {}).values())


def render_status(
    status: dict, previous: Optional[dict] = None, interval: float = 1.0
) -> str:
    """One dashboard frame from a ``/statusz`` payload.

    Rates (epochs/s, cost/s) are computed against ``previous`` — the last
    frame's payload — so the first frame shows absolute values only.
    """
    health = status.get("health", {})
    service = health.get("service", {})
    ledger = health.get("ledger")
    tap = health.get("tap", {})
    slo = service.get("slo", {})
    admission = service.get("admission", {})

    def rate(name: str) -> str:
        if previous is None or interval <= 0:
            return "-"
        change = _metric_total(status, name) - _metric_total(previous, name)
        return f"{change / interval:.2f}/s"

    rows = [
        ("state", service.get("state", "?"),
         "telemetry OK" if health.get("ok", False) else "TELEMETRY NOT OK"),
        ("epoch", service.get("epoch", "?"), f"ticks {rate('service_epochs_total')}"),
        ("sim clock", f"{service.get('clock', 0.0):.0f} s", ""),
        ("backlog", service.get("backlog", "?"),
         f"misses {int(_metric_total(status, 'epoch_deadline_misses_total'))}"),
    ]
    if admission:
        rows.append(
            ("admission",
             f"{admission.get('admitted', 0)}/{admission.get('submitted', 0)} admitted",
             f"shed {sum(admission.get('shed', {}).values())}")
        )
    if ledger is not None:
        cost_rate = "-"
        if previous is not None and interval > 0:
            prev_ledger = previous.get("health", {}).get("ledger") or {}
            cost_rate = (
                f"${(ledger.get('rolling_total', 0.0) - prev_ledger.get('rolling_total', 0.0)) / interval:.4f}/s"
            )
        rows.append(
            ("cost", f"${ledger.get('rolling_total', 0.0):.4f}", cost_rate)
        )
        rows.append(
            ("ledger",
             f"{ledger.get('reconciliations', 0)} reconciliations",
             "drift 0" if ledger.get("ok", False)
             else f"DRIFT x{ledger.get('drift_events', 0)}")
        )
    rows.append(("trace tap", f"seq {tap.get('seq', 0)}", ""))
    lines = [format_table(["stat", "value", "rate / detail"], rows, title="repro top")]

    if slo:
        quantiles = slo.get("lag_quantiles_s", {})
        lines.append("")
        lines.append(
            format_table(
                ["objective", "value", "meter"],
                [
                    ("miss rate", percent(slo.get("miss_rate", 0.0)),
                     meter(slo.get("miss_rate", 0.0))),
                    ("budget left", percent(slo.get("budget_remaining", 0.0)),
                     meter(slo.get("budget_remaining", 0.0))),
                ]
                + [
                    (f"solve lag {q}", f"{value * 1000.0:.2f} ms", "")
                    for q, value in sorted(quantiles.items())
                ],
                title=f"SLO (window {slo.get('window_size', 0)}"
                f"/{slo.get('window_epochs', 0)} epochs)",
            )
        )
    return "\n".join(lines)


def run_top(
    url: str,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    out: IO[str] = sys.stdout,
) -> int:
    """Poll ``url`` and redraw until interrupted (or ``iterations`` frames).

    Returns the process exit code: 0 on a clean stop, 2 when the endpoint
    was never reachable.
    """
    previous: Optional[dict] = None
    frames = 0
    reached = False
    try:
        while iterations is None or frames < iterations:
            try:
                status = fetch_status(url)
            except (urllib.error.URLError, ConnectionError, json.JSONDecodeError) as exc:
                if not reached:
                    print(f"cannot reach {url}: {exc}", file=sys.stderr)
                    return 2
                # endpoint vanished mid-watch: the run finished — stop cleanly
                print(f"endpoint {url} gone; run finished?", file=out)
                return 0
            reached = True
            frame = render_status(status, previous=previous, interval=interval)
            out.write((CLEAR if clear else "") + frame + "\n")
            out.flush()
            previous = status
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
