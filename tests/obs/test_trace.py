"""Unit tests for the structured trace emitter."""

import json

import numpy as np
import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    TraceTap,
    current_tracer,
    use_tracer,
)


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.wants("task") is False

    def test_all_ops_are_noops(self):
        t = NullTracer()
        t.event("task", "launch", 0.0, machine=1)
        t.span("task", "attempt", 0.0, 1.0)
        t.close()


class TestTracer:
    def test_event_record_shape(self):
        t = Tracer()
        t.event("task", "launch", 12.5, machine=3, job=0)
        (rec,) = t.records
        assert rec == {
            "type": "event", "cat": "task", "name": "launch", "ts": 12.5,
            "machine": 3, "job": 0,
        }

    def test_span_record_shape(self):
        t = Tracer()
        t.span("task", "attempt", 1.0, 2.5, machine=0)
        (rec,) = t.records
        assert rec["type"] == "span" and rec["dur"] == 2.5

    def test_dispatch_excluded_by_default(self):
        t = Tracer()
        assert not t.wants("dispatch")
        t.event("dispatch", "cb", 0.0)
        assert t.records == []

    def test_category_allowlist(self):
        t = Tracer(categories=["lp", "dispatch"])
        assert t.wants("dispatch") and t.wants("lp")
        assert not t.wants("task")
        t.event("task", "launch", 0.0)
        t.event("dispatch", "cb", 1.0)
        assert len(t.records) == 1

    def test_to_path_streams_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        t = Tracer.to_path(path)
        t.event("task", "launch", 0.0, machine=1)
        t.span("epoch", "scheduler-epoch", 0.0, 600.0, index=0)
        t.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["type"] for r in lines] == ["event", "span"]
        assert t.records == []  # streaming tracers keep nothing in memory

    def test_numpy_scalars_serialise(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer.to_path(path) as t:
            t.event("task", "launch", 0.0, machine=np.int64(3), mb=np.float64(1.5))
        rec = json.loads(path.read_text())
        assert rec["machine"] == 3 and rec["mb"] == 1.5

    def test_lp_solve_record(self):
        from repro.obs.lpprof import LPSolveRecord

        t = Tracer()
        rec = LPSolveRecord(
            name="co-online", backend="highs", rows_ub=5, rows_eq=2, cols=9,
            nnz=20, wall_seconds=0.01, iterations=7, status="optimal",
        )
        t.lp_solve(rec, ts=600.0)
        (row,) = t.records
        assert row["type"] == "lp_solve" and row["cat"] == "lp"
        assert row["name"] == "co-online" and row["ts"] == 600.0
        assert row["rows_ub"] == 5 and row["wall_s"] == 0.01
        assert row["status"] == "optimal"


class TestSpanIdentity:
    def test_span_ids_are_sequential_per_tracer(self):
        t = Tracer()
        assert [t.new_span_id() for _ in range(3)] == [1, 2, 3]
        assert Tracer().new_span_id() == 1  # fresh tracer, fresh counter

    def test_null_tracer_allocates_nothing(self):
        assert NullTracer().new_span_id() is None


class TestLifecycle:
    def test_context_manager_closes_and_rejects_late_emits(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer.to_path(path) as t:
            t.event("task", "launch", 0.0, machine=1)
        assert t.closed
        # a record emitted after close would be missing from the trace
        with pytest.raises(ValueError, match="closed tracer"):
            t.event("task", "launch", 1.0, machine=1)
        with pytest.raises(ValueError):
            t.span("task", "attempt", 1.0, 2.0)
        assert len(path.read_text().splitlines()) == 1

    def test_close_is_idempotent(self):
        t = Tracer()
        t.close()
        t.close()
        assert t.closed

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        try:
            with Tracer.to_path(path) as t:
                t.event("task", "launch", 0.0)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert t.closed
        assert json.loads(path.read_text())["name"] == "launch"


class TestAmbientTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        t = Tracer()
        with use_tracer(t):
            assert current_tracer() is t
        assert current_tracer() is NULL_TRACER


class TestTraceTap:
    def test_offer_and_tail(self):
        tap = TraceTap(maxlen=8)
        t = Tracer()
        t.add_tap(tap)
        t.event("epoch", "a", 0.0)
        t.event("epoch", "b", 1.0)
        records, cursor, lost = tap.tail()
        assert [r["name"] for r in records] == ["a", "b"]
        assert cursor == 2 and lost == 0

    def test_cursor_paging(self):
        tap = TraceTap(maxlen=8)
        for i in range(5):
            tap.offer({"i": i})
        first, cursor, _ = tap.tail(since=0, limit=2)
        rest, cursor, _ = tap.tail(since=cursor, limit=10)
        assert [r["i"] for r in first] == [0, 1]
        assert [r["i"] for r in rest] == [2, 3, 4]

    def test_tail_limit_keeps_most_recent(self):
        tap = TraceTap(maxlen=8)
        for i in range(5):
            tap.offer({"i": i})
        records, _, _ = tap.tail(limit=2)
        assert [r["i"] for r in records] == [3, 4]

    def test_eviction_without_subscriber_is_free(self):
        tap = TraceTap(maxlen=2)
        for i in range(10):
            tap.offer({"i": i})
        records, cursor, lost = tap.tail()
        assert [r["i"] for r in records] == [8, 9]
        assert cursor == 10 and lost == 0

    def test_stale_cursor_reports_lost(self):
        tap = TraceTap(maxlen=2)
        for i in range(5):
            tap.offer({"i": i})
        records, cursor, lost = tap.tail(since=0)
        assert lost == 3  # records 0..2 already evicted
        assert [r["i"] for r in records] == [3, 4]
        assert cursor == 5

    def test_rejects_silly_maxlen(self):
        with pytest.raises(ValueError):
            TraceTap(maxlen=0)

    def test_tap_does_not_perturb_records_or_sink(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer.to_path(path) as plain:
            plain.event("epoch", "x", 0.0, value=1)
        tapped_path = tmp_path / "t2.jsonl"
        tap = TraceTap()
        with Tracer.to_path(tapped_path) as tapped:
            tapped.add_tap(tap)
            tapped.event("epoch", "x", 0.0, value=1)
        assert path.read_text() == tapped_path.read_text()
        records, _, _ = tap.tail()
        assert records == [json.loads(path.read_text())]

    def test_buffered_tracer_delegates_taps(self):
        from repro.obs.trace import BufferedTracer

        inner = Tracer()
        tap = TraceTap()
        buffered = BufferedTracer(inner)
        buffered.add_tap(tap)
        buffered.event("epoch", "x", 0.0)
        assert tap.seq == 0  # nothing until flush
        buffered.flush()
        assert tap.seq == 1

    def test_tap_only_tracer_keeps_nothing(self):
        tap = TraceTap()
        t = Tracer.tap_only()
        t.add_tap(tap)
        t.event("epoch", "x", 0.0)
        assert t.records == []
        assert tap.seq == 1
