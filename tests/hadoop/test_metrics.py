"""Unit tests for run metrics."""

import pytest

from repro.hadoop.metrics import SimMetrics
from repro.obs.registry import MetricsRegistry


@pytest.fixture
def metrics():
    m = SimMetrics()
    m.ledger.charge_cpu(2.0, job_id=0, machine_id=0)
    m.ledger.charge_runtime_transfer(0.5, machine_id=0, store_id=1)
    m.makespan = 100.0
    m.local_read_mb = 60.0
    m.zone_read_mb = 30.0
    m.remote_read_mb = 10.0
    m.machine_wall_busy = {0: 50.0, 1: 25.0}
    m.machine_cpu_seconds = {0: 80.0, 1: 20.0}
    m.job_durations = {0: 40.0, 1: 60.0}
    return m


def test_total_cost(metrics):
    assert metrics.total_cost == pytest.approx(2.5)


def test_locality_fraction(metrics):
    assert metrics.data_locality == pytest.approx(0.6)


def test_locality_defaults_one_with_no_reads():
    assert SimMetrics().data_locality == 1.0


def test_total_job_execution_time(metrics):
    assert metrics.total_job_execution_time == pytest.approx(100.0)


def test_utilization(metrics):
    assert metrics.utilization(2) == pytest.approx(75.0 / 200.0)
    assert SimMetrics().utilization(2) == 0.0


def test_machine_cpu_vector(metrics):
    v = metrics.machine_cpu_vector(3)
    assert v.tolist() == [80.0, 20.0, 0.0]


def test_summary_keys(metrics):
    s = metrics.summary()
    assert {"total_cost", "makespan", "data_locality", "tasks_run"} <= set(s)


def _published(m: SimMetrics) -> dict:
    """``publish`` output as {metric: [(kind, labels, value), ...]}."""
    target = MetricsRegistry()
    m.publish(target, scheduler="s")
    m.publish(target, scheduler="s")  # counters sum across runs
    return {
        d["name"]: [
            (d["kind"], tuple(sorted(s["labels"].items())), s["value"])
            for s in d["series"]
        ]
        for d in target.dump()
    }


def test_field_writes_land_in_the_given_registry():
    registry = MetricsRegistry()
    m = SimMetrics(registry=registry)
    names = sorted(SimMetrics._PUBLISHED_COUNTERS) + ["makespan"]
    for i, name in enumerate(names):
        setattr(m, name, float(i + 1))
    m.tasks_run += 2
    m.lp_solve_seconds += 0.5
    expected = {name: float(i + 1) for i, name in enumerate(names)}
    expected["tasks_run"] += 2
    expected["lp_solve_seconds"] += 0.5
    dumped = {d["name"]: d for d in registry.dump()}
    for name, value in expected.items():
        assert dumped[name]["series"] == [{"labels": {}, "value": value}], name
        assert dumped[name]["kind"] == ("gauge" if name == "makespan" else "counter")
        assert getattr(m, name) == value
    assert isinstance(m.tasks_run, int)
    # an unlabelled read or write is the same series as the registry's own
    registry.counter("moved_mb").inc(1.0)
    assert m.moved_mb == expected["moved_mb"] + 1.0


def test_publish_output_is_pinned():
    m = SimMetrics()
    m.ledger.charge_cpu(2.0, job_id=0, machine_id=0)
    m.ledger.charge_runtime_transfer(0.5, machine_id=0, store_id=1)
    m.ledger.charge_placement_transfer(0.25, store_id=1)
    m.makespan = 100.0
    m.local_read_mb = 60.0
    m.zone_read_mb += 30.0
    m.remote_read_mb = 10.0
    m.tasks_run += 3
    m.tasks_run += 1
    m.lp_solve_seconds += 0.125
    m.lp_solves = 2
    m.machine_wall_busy = {0: 50.0, 1: 25.0}
    m.machine_cpu_seconds = {0: 80.0, 1: 20.0}
    m.job_durations = {0: 40.0, 1: 60.0}
    s = (("scheduler", "s"),)
    assert _published(m) == {
        "cost_dollars": [
            ("counter", (("category", "cpu"),) + s, 4.0),
            ("counter", (("category", "placement-transfer"),) + s, 0.5),
            ("counter", (("category", "runtime-transfer"),) + s, 1.0),
        ],
        "jobs_completed": [("gauge", s, 2.0)],
        "local_read_mb": [("counter", s, 120.0)],
        "lp_solve_seconds": [("counter", s, 0.25)],
        "lp_solves": [("counter", s, 4.0)],
        "machine_cpu_seconds": [
            ("counter", (("machine", "0"),) + s, 160.0),
            ("counter", (("machine", "1"),) + s, 40.0),
        ],
        "machine_wall_busy_seconds": [
            ("counter", (("machine", "0"),) + s, 100.0),
            ("counter", (("machine", "1"),) + s, 50.0),
        ],
        "makespan": [("gauge", s, 100.0)],
        "remote_read_mb": [("counter", s, 20.0)],
        "tasks_run": [("counter", s, 8.0)],
        "zone_read_mb": [("counter", s, 60.0)],
    }
