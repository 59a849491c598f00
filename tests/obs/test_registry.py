"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    current_registry,
    use_registry,
)


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("hits")
        assert c.value() == 0.0

    def test_inc_accumulates(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_rejects_negative(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_labels_are_independent_series(self):
        c = Counter("reads")
        c.inc(10, machine=0)
        c.inc(5, machine=1)
        assert c.value(machine=0) == 10
        assert c.value(machine=1) == 5
        assert c.total() == 15

    def test_label_order_irrelevant(self):
        c = Counter("x")
        c.inc(1, a=1, b=2)
        assert c.value(b=2, a=1) == 1

    def test_set_total_forces_value(self):
        c = Counter("x")
        c.inc(3)
        c.set_total(1.0)
        assert c.value() == 1.0


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("depth")
        g.set(4.0)
        g.add(-1.5)
        assert g.value() == 2.5


class TestHistogram:
    def test_observations_bucketed(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count() == 3
        assert h.sum() == 55.5
        assert h.mean() == pytest.approx(18.5)

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(99.0)
        series = h.dump()["series"][0]["value"]
        assert series["buckets"][-1] == {"le": "+inf", "count": 1}

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_labelled_series(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.1, backend="highs")
        h.observe(0.2, backend="simplex")
        assert h.count(backend="highs") == 1
        assert h.mean(backend="simplex") == pytest.approx(0.2)


class TestRegistry:
    def test_memoised_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_dump_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(1, zone="z1")
        reg.gauge("a").set(2)
        dump = reg.dump()
        assert [m["name"] for m in dump] == ["a", "b"]
        json.dumps(dump)  # must not raise

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        path = tmp_path / "m.json"
        reg.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded[0]["name"] == "hits"
        assert loaded[0]["series"][0]["value"] == 3

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        assert "a" in reg and "b" not in reg
        assert len(reg) == 1


class TestMergeFrom:
    def test_counters_and_gauges_accumulate_with_extra_labels(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("hits").inc(2, kind="solver")
        b.gauge("makespan").set(5.0)
        a.merge_from(b, seed=0)
        a.merge_from(b, seed=1)
        assert a.counter("hits").value(kind="solver", seed=0) == 2
        assert a.counter("hits").total() == 4
        assert a.gauge("makespan").value(seed=1) == 5.0

    def test_histograms_merge_bucket_by_bucket(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("lat").observe(0.01)
        b.histogram("lat").observe(2.0)
        a.histogram("lat").observe(0.01)
        a.merge_from(b)
        assert a.histogram("lat").count() == 3
        assert a.histogram("lat").sum() == pytest.approx(2.02)

    def test_histogram_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", buckets=(1.0, 2.0))
        b.histogram("lat", buckets=(5.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds"):
            a.merge_from(b)


class TestCurrentRegistry:
    def test_default_none(self):
        assert current_registry() is None

    def test_use_registry_installs_and_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg) as installed:
            assert installed is reg
            assert current_registry() is reg
        assert current_registry() is None


class TestHistogramQuantile:
    def test_empty_series_is_zero(self):
        assert Histogram("lat").quantile(0.5) == 0.0

    def test_q_out_of_range_raises(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_interpolates_inside_a_bucket(self):
        # 100 observations spread over (1, 2]: rank q*100 interpolates
        # linearly between the bucket bounds
        h = Histogram("lat", buckets=(1.0, 2.0))
        for _ in range(100):
            h.observe(1.5)
        assert h.quantile(0.5) == pytest.approx(1.5, abs=0.02)

    def test_extremes_clamp_to_observed_envelope(self):
        h = Histogram("lat", buckets=(1.0, 2.0))
        for v in (1.2, 1.4, 1.8):
            h.observe(v)
        assert h.quantile(0.0) >= 1.2
        assert h.quantile(1.0) <= 1.8

    def test_overflow_bucket_returns_observed_max(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.observe(37.0)
        assert h.quantile(0.99) == 37.0

    def test_first_bucket_interpolates_from_min(self):
        h = Histogram("lat", buckets=(10.0,))
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        q = h.quantile(0.5)
        assert 2.0 <= q <= 10.0

    def test_labelled_series_independent(self):
        h = Histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5, backend="a")
        h.observe(5.0, backend="b")
        assert h.quantile(0.5, backend="a") <= 1.0
        assert h.quantile(0.5, backend="b") >= 1.0


class TestSnapshots:
    def test_scalar_snapshot_is_a_copy(self):
        c = Counter("hits")
        c.inc(2, zone="z")
        snap = c.snapshot()
        c.inc(5, zone="z")
        assert list(snap.values()) == [2]

    def test_registry_snapshot_values(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3, k="v")
        reg.gauge("b").set(1.5)
        reg.histogram("h").observe(0.01)
        snap = reg.snapshot()
        assert snap.scalars() == {("a", (("k", "v"),)): 3, ("b", ()): 1.5}
        (hist,) = [m for m in snap.metrics if m.kind == "histogram"]
        assert hist.buckets is not None
        (series,) = hist.series.values()
        assert series["count"] == 1


class TestAtomicDump:
    def test_overwrites_existing_dump_atomically(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(1)
        path = tmp_path / "m.json"
        reg.write_json(path)
        reg.counter("hits").inc(1)
        reg.write_json(path)
        loaded = json.loads(path.read_text())
        assert loaded[0]["series"][0]["value"] == 2

    def test_no_tmp_file_left_behind(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("hits").inc(1)
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert not (tmp_path / "m.json.tmp").exists()
