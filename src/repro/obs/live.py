"""Live telemetry plane: scrapeable metrics, trace tail and health over HTTP.

A running :class:`~repro.serve.service.SchedulingService` (or a plain
simulator run) is a black box once started: metrics dump at exit, traces
land on disk, health lives in process memory.  This module makes all three
observable *while the run is still going* without perturbing it:

``/metrics``
    Prometheus text exposition of a :class:`~repro.obs.registry.
    MetricsRegistry` — each series copied under its own metric lock
    (:meth:`MetricsRegistry.snapshot`), so the scrape never tears a series
    and never blocks the hot path for longer than one dict copy.
``/trace``
    The most recent trace records, fed by a bounded non-blocking
    :class:`~repro.obs.trace.TraceTap` on the run's tracer: NDJSON, with
    a ``since`` cursor to page forward and an ``X-Trace-Lost`` count of
    records evicted past it.
``/healthz``
    JSON health (rolling-ledger reconciliation) plus whatever the host's
    status provider reports — for the service: watchdog state, admission
    shed, backlog and the SLO view (miss budget, solve-latency quantiles).
``/statusz``
    Scalar metrics grouped by name plus the ``/healthz`` body in one
    request — the payload ``repro top`` polls.

Determinism contract
--------------------
The plane only ever *reads* run state: registry snapshots, tap buffers,
status callables.  Its own bookkeeping (scrape counts, the tap's sequence
number) is rendered at scrape time and never written into the run's
registry, so metric dumps, golden traces and ledgers are byte-identical
with the plane on or off.  The HTTP server binds to 127.0.0.1 and serves
from daemon threads; the simulation thread never waits on it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.registry import (
    LabelKey,
    MetricsRegistry,
    MetricSnapshot,
    RegistrySnapshot,
)
from repro.obs.trace import TraceTap, json_default

#: Content type Prometheus scrapers expect for the text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class TelemetryError(RuntimeError):
    """The telemetry plane could not start or serve (port in use, ...)."""


# -- Prometheus text rendering ---------------------------------------------

def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = list(key) + (extra or [])
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + inner + "}"


def _render_metric(metric: MetricSnapshot, lines: List[str]) -> None:
    if metric.help:
        lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
    lines.append(f"# TYPE {metric.name} {metric.kind}")
    if metric.kind in ("counter", "gauge"):
        for key in sorted(metric.series):
            value = metric.series[key]
            lines.append(f"{metric.name}{_format_labels(key)} {_format_value(value)}")
        return
    # histogram: cumulative buckets + _sum + _count per label set
    bounds = list(metric.buckets or ())
    for key in sorted(metric.series):
        series = metric.series[key]
        cumulative = 0
        for bound, count in zip(bounds, series["bucket_counts"]):
            cumulative += count
            labels = _format_labels(key, extra=[("le", _format_value(bound))])
            lines.append(f"{metric.name}_bucket{labels} {cumulative}")
        labels = _format_labels(key, extra=[("le", "+Inf")])
        lines.append(f"{metric.name}_bucket{labels} {series['count']}")
        lines.append(f"{metric.name}_sum{_format_labels(key)} {_format_value(series['sum'])}")
        lines.append(f"{metric.name}_count{_format_labels(key)} {series['count']}")


def render_prometheus(snapshot: RegistrySnapshot) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Deterministic: metrics arrive sorted by name, series render sorted by
    label key, histogram buckets render cumulatively with a ``+Inf`` bucket
    equal to the series count (the format's invariant).
    """
    lines: List[str] = []
    for metric in snapshot.metrics:
        _render_metric(metric, lines)
    return "\n".join(lines) + ("\n" if lines else "")


# -- the plane --------------------------------------------------------------

class LiveTelemetryPlane:
    """Read-only aggregation point the HTTP endpoints serve from.

    Holds a :class:`MetricsRegistry` (a host scraping its run's own
    registry assigns :attr:`registry`), a :class:`TraceTap` to attach to
    the run's tracer, an optional rolling ledger and an optional status
    provider callable (the service wires in its watchdog/admission/SLO
    view).  Everything it serves is computed at request time from locked
    snapshots; nothing is pushed from the hot path except tap offers.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tap = TraceTap()
        self.rolling = None  # RollingLedger, when the host enables one
        self._status_provider: Optional[Callable[[], dict]] = None
        self._lock = threading.Lock()
        self.scrapes = 0

    # -- wiring -------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Feed the plane's trace tail from ``tracer`` (idempotent)."""
        tracer.add_tap(self.tap)

    def set_status_provider(self, provider: Optional[Callable[[], dict]]) -> None:
        """Install the host's status callable (service state, SLO, ...)."""
        with self._lock:
            self._status_provider = provider

    def set_rolling_ledger(self, rolling) -> None:
        """Expose a :class:`~repro.obs.ledger.RollingLedger` on /healthz."""
        with self._lock:
            self.rolling = rolling

    # -- views --------------------------------------------------------------
    def _status(self) -> dict:
        with self._lock:
            provider = self._status_provider
        if provider is None:
            return {}
        return provider()

    def metrics_text(self) -> str:
        """The /metrics body: registry scrape + plane-internal series.

        Plane bookkeeping (scrape count, tap sequence) is appended at
        render time, never written into the run registry — so the registry
        the run dumps at exit is byte-identical with the plane on or off.
        """
        with self._lock:
            self.scrapes += 1
            scrapes = self.scrapes
        body = render_prometheus(self.registry.snapshot())
        extra = [
            "# HELP telemetry_scrapes_total /metrics scrapes served by the live plane",
            "# TYPE telemetry_scrapes_total counter",
            f"telemetry_scrapes_total {scrapes}",
            "# HELP trace_tap_records_total records offered to the live trace tap",
            "# TYPE trace_tap_records_total counter",
            f"trace_tap_records_total {self.tap.seq}",
        ]
        return body + "\n".join(extra) + "\n"

    def ledger_view(self) -> Optional[dict]:
        """Rolling-ledger reconciliation state, or None when not enabled."""
        with self._lock:
            rolling = self.rolling
        if rolling is None:
            return None
        return {
            "ok": rolling.drift_events == 0,
            "folds": rolling.folds,
            "records_folded": rolling.cursor,
            "cells": len(rolling),
            "reconciliations": rolling.reconciliations,
            "last_residual": rolling.last_residual,
            "max_residual": rolling.max_residual,
            "drift_events": rolling.drift_events,
            "tol": rolling.tol,
            "rolling_total": rolling.total,
        }

    def health(self) -> dict:
        """The /healthz body: plane, tap, ledger and host status.

        ``ok`` is false only for a hard telemetry failure — rolling-ledger
        drift.  A DEGRADED/SHEDDING service is *not* unhealthy telemetry;
        its state (SLO view included) rides along under ``service``.
        """
        out: dict = {
            "ok": True,
            "scrapes": self.scrapes,
            "tap": {"seq": self.tap.seq},
        }
        ledger = self.ledger_view()
        if ledger is not None:
            out["ledger"] = ledger
            out["ok"] = ledger["ok"]
        status = self._status()
        if status:
            out["service"] = status
        return out

    def statusz(self) -> dict:
        """The /statusz body ``repro top`` polls: scalars + health.

        Stateless: ``repro top`` computes its rates by differencing its
        own consecutive polls.
        """
        metrics: Dict[str, Dict[str, float]] = {}
        for (name, key), value in sorted(self.registry.snapshot().scalars().items()):
            metrics.setdefault(name, {})[",".join(f"{k}={v}" for k, v in key)] = value
        return {"metrics": metrics, "health": self.health()}


# -- the HTTP server --------------------------------------------------------

class _TelemetryHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, plane: LiveTelemetryPlane) -> None:
        super().__init__(address, handler)
        self.plane = plane


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _TelemetryHTTPServer

    def log_message(self, fmt, *args) -> None:  # noqa: A003 - stdlib signature
        pass  # endpoint traffic must not spam the run's stdout

    def _respond(self, code: int, content_type: str, body: str) -> None:
        payload = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, payload: dict, code: int = 200) -> None:
        self._respond(code, "application/json", json.dumps(payload, sort_keys=True) + "\n")

    def _int_param(self, params: Dict[str, List[str]], name: str) -> Optional[int]:
        values = params.get(name)
        if not values:
            return None
        try:
            return int(values[0])
        except ValueError:
            raise ValueError(f"query parameter {name!r} must be an integer")

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        plane = self.server.plane
        parsed = urlparse(self.path)
        params = parse_qs(parsed.query)
        try:
            if parsed.path == "/metrics":
                self._respond(200, PROMETHEUS_CONTENT_TYPE, plane.metrics_text())
            elif parsed.path == "/healthz":
                health = plane.health()
                self._respond_json(health, code=200 if health["ok"] else 503)
            elif parsed.path == "/statusz":
                self._respond_json(plane.statusz())
            elif parsed.path == "/trace":
                self._serve_trace(plane, params)
            else:
                self._respond_json({"error": f"no such endpoint: {parsed.path}"}, code=404)
        except ValueError as exc:
            self._respond_json({"error": str(exc)}, code=400)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def _serve_trace(self, plane: LiveTelemetryPlane, params: Dict[str, List[str]]) -> None:
        """NDJSON tail: most recent records, or records since a cursor."""
        since = self._int_param(params, "since")
        limit = self._int_param(params, "limit")
        if limit is None:
            limit = 256
        records, next_cursor, lost = plane.tap.tail(since=since, limit=limit)
        lines = [json.dumps(r, separators=(",", ":"), default=json_default) for r in records]
        body = "\n".join(lines) + ("\n" if lines else "")
        payload = body.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("X-Trace-Next-Cursor", str(next_cursor))
        self.send_header("X-Trace-Lost", str(lost))
        self.end_headers()
        self.wfile.write(payload)


class LiveTelemetryServer:
    """Serves a :class:`LiveTelemetryPlane` over HTTP on 127.0.0.1.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    bound one.  The server runs in a single daemon thread (plus per-request
    daemon threads) and is stopped with :meth:`stop` or as a context
    manager — stopping shuts the accept loop and joins it.
    """

    def __init__(
        self, plane: LiveTelemetryPlane, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.plane = plane
        try:
            self._httpd = _TelemetryHTTPServer((host, port), _Handler, plane)
        except OSError as exc:
            raise TelemetryError(f"cannot bind telemetry endpoint on {host}:{port}: {exc}")
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "LiveTelemetryServer":
        """Start the accept loop in a daemon thread; returns self."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving: shut the accept loop, join, close."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "LiveTelemetryServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
