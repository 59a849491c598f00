"""The live telemetry plane: rendering, endpoints, and the determinism contract.

Endpoint tests bind an ephemeral port (``port=0``) on 127.0.0.1 and talk
HTTP through urllib; the determinism tests re-run the golden-trace workload
with the plane attached and require byte-identical traces and ledgers.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.ledger import DollarLedger
from repro.obs.live import (
    PROMETHEUS_CONTENT_TYPE,
    LiveTelemetryPlane,
    LiveTelemetryServer,
    render_prometheus,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

from tests.obs.test_sim_tracing import normalise, run_once


def _get(url, path):
    with urllib.request.urlopen(f"{url}{path}", timeout=5.0) as resp:
        return resp.status, dict(resp.headers), resp.read().decode("utf-8")


class TestRenderPrometheus:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("hits", "how many").inc(3, zone="z1")
        reg.gauge("depth").set(1.5)
        text = render_prometheus(reg.snapshot())
        assert "# HELP hits how many" in text
        assert "# TYPE hits counter" in text
        assert 'hits{zone="z1"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 1.5" in text
        assert text.endswith("\n")

    def test_metric_and_series_order_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(1)
        reg.counter("a").inc(1, x="2")
        reg.counter("a").inc(1, x="1")
        text = render_prometheus(reg.snapshot())
        assert text.index('a{x="1"}') < text.index('a{x="2"}') < text.index("b 1")

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        text = render_prometheus(reg.snapshot())
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_sum 56.2" in text
        assert "lat_count 4" in text

    def test_label_and_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", 'say "hi"\nthere').inc(1, path='a\\b"c')
        text = render_prometheus(reg.snapshot())
        assert '# HELP c say "hi"\\nthere' in text
        assert 'c{path="a\\\\b\\"c"} 1' in text

    def test_empty_registry_is_empty_body(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""


class TestPlaneViews:
    def test_metrics_text_appends_plane_internals_without_touching_registry(self):
        plane = LiveTelemetryPlane()
        plane.registry.counter("hits").inc(2)
        text = plane.metrics_text()
        assert "hits 2" in text
        assert "telemetry_scrapes_total 1" in text
        assert "trace_tap_records_total 0" in text
        # scrape bookkeeping never lands in the run registry
        assert "telemetry_scrapes_total" not in [m["name"] for m in plane.registry.dump()]
        assert "telemetry_scrapes_total 2" in plane.metrics_text()

    def test_health_ok_until_drift_or_drops(self):
        from repro.obs.ledger import RollingLedger

        plane = LiveTelemetryPlane()
        assert plane.health()["ok"] is True
        rolling = RollingLedger()
        plane.set_rolling_ledger(rolling)
        assert plane.health()["ledger"]["ok"] is True
        rolling.reconcile(7.0)  # drift: rolling total is 0, expected 7
        health = plane.health()
        assert health["ok"] is False
        assert health["ledger"]["drift_events"] == 1

    def test_health_folds_in_status_provider(self):
        plane = LiveTelemetryPlane()
        plane.set_status_provider(lambda: {"state": "degraded", "slo": {"misses": 3}})
        health = plane.health()
        # a degraded *service* is not unhealthy *telemetry*
        assert health["ok"] is True
        assert health["service"]["state"] == "degraded"
        assert health["service"]["slo"] == {"misses": 3}

    def test_statusz_groups_label_sets_and_deltas(self):
        plane = LiveTelemetryPlane()
        plane.registry.counter("reads").inc(1, machine="0")
        plane.registry.counter("reads").inc(2, machine="1")
        status = plane.statusz()
        assert status["metrics"]["reads"] == {"machine=0": 1, "machine=1": 2}
        assert set(status) == {"metrics", "health"}


class TestEndpoints:
    @pytest.fixture()
    def server(self):
        plane = LiveTelemetryPlane()
        plane.registry.counter("hits").inc(1)
        tracer = Tracer()
        plane.attach_tracer(tracer)
        for i in range(3):
            tracer.event("test", "ping", ts=float(i), index=i)
        with LiveTelemetryServer(plane, port=0) as srv:
            yield srv

    def test_metrics_endpoint(self, server):
        status, headers, body = _get(server.url, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "hits 1" in body
        assert "trace_tap_records_total 3" in body

    def test_healthz_endpoint(self, server):
        status, _, body = _get(server.url, "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"] is True
        assert payload["tap"]["seq"] == 3

    def test_healthz_503_on_drift(self, server):
        from repro.obs.ledger import RollingLedger

        rolling = RollingLedger()
        rolling.reconcile(1.0)
        server.plane.set_rolling_ledger(rolling)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url, "/healthz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["ok"] is False

    def test_slo_and_statusz_endpoints(self, server):
        server.plane.set_status_provider(lambda: {"slo": {"miss_rate": 0.0}})
        status, _, body = _get(server.url, "/statusz")
        payload = json.loads(body)
        assert status == 200
        assert payload["metrics"]["hits"] == {"": 1}
        assert payload["health"]["ok"] is True
        # the SLO view is read from the health body and the trace is paged
        # through /trace: neither the SLO view nor a trace stream has an
        # endpoint of its own
        assert payload["health"]["service"]["slo"] == {"miss_rate": 0.0}
        for segments in (("slo",), ("trace", "sse")):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url, "/" + "/".join(segments))
            assert excinfo.value.code == 404

    def test_trace_tail_and_cursor(self, server):
        status, headers, body = _get(server.url, "/trace?limit=2")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["index"] for r in records] == [1, 2]
        assert headers["X-Trace-Next-Cursor"] == "3"
        assert headers["X-Trace-Lost"] == "0"
        # resume from the cursor: nothing new yet
        status, headers, body = _get(server.url, "/trace?since=3")
        assert body == "" and headers["X-Trace-Next-Cursor"] == "3"

    def test_unknown_path_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url, "/nope")
        assert excinfo.value.code == 404

    def test_bad_int_param_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url, "/trace?limit=banana")
        assert excinfo.value.code == 400


class TestServerLifecycle:
    def test_ephemeral_port_and_context_manager(self):
        plane = LiveTelemetryPlane()
        with LiveTelemetryServer(plane, port=0) as server:
            assert server.port > 0
            assert server.url.startswith("http://127.0.0.1:")
        # after stop the port no longer answers
        with pytest.raises(Exception):
            _get(f"http://127.0.0.1:{server.port}", "/healthz")

    def test_port_clash_raises_telemetry_error(self):
        from repro.obs.live import TelemetryError

        plane = LiveTelemetryPlane()
        with LiveTelemetryServer(plane, port=0) as server:
            import socket

            probe = socket.socket()
            try:
                probe.bind(("127.0.0.1", 0))
                taken = probe.getsockname()[1]
                with pytest.raises(TelemetryError):
                    LiveTelemetryServer(LiveTelemetryPlane(), port=taken)
            finally:
                probe.close()
            assert server.port  # original still alive


class TestDeterminismContract:
    """The plane may observe a run; it must never perturb it."""

    def test_trace_identical_with_plane_attached_and_scraping(self, tmp_path):
        from repro.obs.export import load_jsonl

        bare_path = tmp_path / "bare.jsonl"
        with Tracer.to_path(bare_path) as tracer:
            bare = run_once(tracer=tracer)

        plane = LiveTelemetryPlane()
        observed_path = tmp_path / "observed.jsonl"
        with Tracer.to_path(observed_path) as tracer:
            plane.attach_tracer(tracer)
            with LiveTelemetryServer(plane, port=0) as server:
                observed = run_once(tracer=tracer)
                # scrape mid-lifetime to prove scraping is side-effect free
                _get(server.url, "/metrics")
                _get(server.url, "/healthz")

        # identical up to wall-clock jitter (the golden-trace contract)
        assert normalise(load_jsonl(observed_path)) == normalise(load_jsonl(bare_path))
        assert observed.metrics.total_cost == bare.metrics.total_cost
        assert observed.metrics.makespan == bare.metrics.makespan
        assert plane.tap.seq == len(bare_path.read_text().splitlines())

    def test_normalised_trace_matches_plane_off_run(self, tmp_path):
        from repro.obs.export import load_jsonl

        plain_path = tmp_path / "plain.jsonl"
        with Tracer.to_path(plain_path) as tracer:
            run_once(tracer=tracer)

        plane = LiveTelemetryPlane()
        tapped_path = tmp_path / "tapped.jsonl"
        with Tracer.to_path(tapped_path) as tracer:
            plane.attach_tracer(tracer)
            run_once(tracer=tracer)

        assert normalise(load_jsonl(tapped_path)) == normalise(load_jsonl(plain_path))

    def test_ledger_identical_with_plane_attached(self):
        # both runs traced (tracing links charges to spans); the only
        # difference is the tap hanging off the second tracer
        bare = run_once(tracer=Tracer())
        plane = LiveTelemetryPlane()
        tracer = Tracer()
        plane.attach_tracer(tracer)
        observed = run_once(tracer=tracer)
        assert (
            DollarLedger.from_cost_ledger(observed.metrics.ledger).cells
            == DollarLedger.from_cost_ledger(bare.metrics.ledger).cells
        )


class TestTopRendering:
    def _status(self, epoch=7, cost=1.25, reconciliations=7):
        return {
            "metrics": {
                "service_epochs_total": {"": float(epoch)},
                "epoch_deadline_misses_total": {"": 0.0},
            },
            "health": {
                "ok": True,
                "tap": {"seq": 42},
                "ledger": {
                    "ok": True,
                    "rolling_total": cost,
                    "reconciliations": reconciliations,
                    "drift_events": 0,
                },
                "service": {
                    "state": "healthy",
                    "epoch": epoch,
                    "clock": 60.0 * epoch,
                    "backlog": 2,
                    "admission": {"submitted": 5, "admitted": 4, "shed": {"backlog": 1}},
                    "slo": {
                        "window_size": epoch,
                        "window_epochs": 128,
                        "miss_rate": 0.25,
                        "budget_remaining": 0.5,
                        "lag_quantiles_s": {"p50": 0.001, "p95": 0.002, "p99": 0.003},
                    },
                },
            },
        }

    def test_first_frame_absolute_values(self):
        from repro.obs.top import render_status

        frame = render_status(self._status())
        assert "repro top" in frame
        assert "healthy" in frame
        assert "telemetry OK" in frame
        assert "$1.2500" in frame
        assert "4/5 admitted" in frame
        assert "seq 42" in frame
        assert "miss rate" in frame and "25.0%" in frame
        assert "solve lag p95" in frame and "2.00 ms" in frame

    def test_rates_from_previous_frame(self):
        from repro.obs.top import render_status

        previous = self._status(epoch=7, cost=1.0)
        current = self._status(epoch=9, cost=1.5)
        frame = render_status(current, previous=previous, interval=2.0)
        assert "ticks 1.00/s" in frame
        assert "$0.2500/s" in frame

    def test_alarm_states_render_loud(self):
        from repro.obs.top import render_status

        status = self._status()
        status["health"]["ok"] = False
        status["health"]["ledger"]["ok"] = False
        status["health"]["ledger"]["drift_events"] = 2
        frame = render_status(status)
        assert "TELEMETRY NOT OK" in frame
        assert "DRIFT x2" in frame

    def test_meter_bars(self):
        from repro.experiments.report import meter

        assert meter(0.0, width=8) == "[........]"
        assert meter(0.5, width=8) == "[####....]"
        assert meter(1.0, width=8) == "[########]"
        assert meter(7.5, width=8) == "[########]"  # clamped
        assert meter(-1.0, width=8) == "[........]"

    def test_run_top_unreachable_returns_2(self):
        import io

        from repro.obs.top import run_top

        # a port nothing listens on: connection refused immediately
        code = run_top("http://127.0.0.1:9", iterations=1, out=io.StringIO())
        assert code == 2

    def test_run_top_against_live_server(self):
        import io

        from repro.obs.top import run_top

        plane = LiveTelemetryPlane()
        plane.registry.counter("service_epochs_total").inc(3)
        plane.set_status_provider(lambda: {"state": "healthy", "epoch": 3})
        with LiveTelemetryServer(plane, port=0) as server:
            out = io.StringIO()
            code = run_top(server.url, interval=0.01, iterations=2, clear=False, out=out)
        assert code == 0
        assert out.getvalue().count("repro top") == 2
