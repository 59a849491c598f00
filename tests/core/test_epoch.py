"""Unit tests for the epoch controller (online scheduling loop)."""

import pytest

from repro.core.epoch import EpochController
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def workload():
    data = [
        DataObject(data_id=0, name="d0", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="d1", size_mb=320.0, origin_store=1),
    ]
    jobs = [
        Job(job_id=0, name="j0", tcp=0.5, data_ids=[0], num_tasks=10, arrival_time=0.0),
        Job(job_id=1, name="j1", tcp=1.0, data_ids=[1], num_tasks=5, arrival_time=0.0),
        Job(job_id=2, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=100.0, arrival_time=700.0),
    ]
    return Workload(jobs=jobs, data=data)


def test_all_jobs_complete(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    assert set(res.job_completion) == {0, 1, 2}


def test_late_arrival_waits_for_its_epoch(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    # job 2 arrives at 700s: its first schedulable epoch starts at 1200s
    completion = workload.jobs[2].arrival_time + res.job_completion[2]
    assert completion >= 1200.0


def test_costs_accumulate_per_category(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    cats = res.ledger.total_by_category()
    assert cats.get("cpu", 0.0) > 0
    assert res.total_cost == pytest.approx(sum(cats.values()))


def test_machine_cpu_seconds_conserved(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    assert res.machine_cpu_seconds.sum() == pytest.approx(
        workload.total_cpu_seconds(), rel=1e-6
    )


def test_small_epoch_requeues_then_finishes(two_zone_cluster, workload):
    """With a tight epoch the fake node defers work but the run terminates."""
    res = EpochController(two_zone_cluster, epoch_length=30.0).run(workload)
    assert set(res.job_completion) == {0, 1, 2}
    requeues = sum(r.num_requeued for r in res.reports)
    assert requeues > 0  # the 30s epoch cannot hold the whole queue
    assert res.num_epochs >= 2


def test_longer_epoch_cheaper_or_equal(two_zone_cluster, workload):
    short = EpochController(two_zone_cluster, epoch_length=60.0).run(workload)
    long_ = EpochController(two_zone_cluster, epoch_length=6000.0).run(workload)
    assert long_.total_cost <= short.total_cost * 1.05


def test_makespan_positive_and_covers_arrivals(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    assert res.makespan >= 700.0  # at least the last arrival


def test_max_epochs_guard(two_zone_cluster, workload):
    with pytest.raises(RuntimeError, match="max_epochs"):
        EpochController(two_zone_cluster, epoch_length=1e-3, max_epochs=5).run(workload)


def test_epoch_length_validation(two_zone_cluster):
    with pytest.raises(ValueError):
        EpochController(two_zone_cluster, epoch_length=0.0)


def test_total_execution_time_metric(two_zone_cluster, workload):
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)
    assert res.total_execution_time() == pytest.approx(sum(res.job_completion.values()))


@pytest.mark.parametrize("read_fraction", [1.0, 0.5, 0.1])
def test_partial_access_plans_only_the_read_fraction(two_zone_cluster, read_fraction):
    """A job reading part of its object is planned for that part's CPU."""
    data = [DataObject(data_id=0, name="d0", size_mb=640.0, origin_store=0)]
    job = Job(job_id=0, name="j0", tcp=1.0, data_ids=[0], read_fraction=read_fraction)
    res = EpochController(two_zone_cluster, epoch_length=600.0).run(Workload([job], data))
    assert res.machine_cpu_seconds.sum() == pytest.approx(640.0 * read_fraction, rel=1e-6)


# -- idle-skip (sparse arrivals) ---------------------------------------------


def test_skip_idle_to_lands_on_the_covering_boundary(two_zone_cluster):
    c = EpochController(two_zone_cluster, epoch_length=60.0)
    c.begin()
    c.skip_idle_to(120.0)  # exact boundary: epoch 2 starts at 120s
    assert c.epoch_index == 2
    c.skip_idle_to(121.0)  # just past it: next boundary is 180s
    assert c.epoch_index == 3
    # always advances at least one epoch, even for an already-covered time
    c.skip_idle_to(0.0)
    assert c.epoch_index == 4


def test_skip_idle_to_clamps_at_max_epochs(two_zone_cluster):
    c = EpochController(two_zone_cluster, epoch_length=60.0, max_epochs=10)
    c.begin()
    c.skip_idle_to(1e12)
    assert c.epoch_index == 10


def test_sparse_arrivals_jump_instead_of_spinning(two_zone_cluster, monkeypatch):
    """Regression: a long idle gap must not be walked one empty epoch at a
    time — run() jumps straight to the next arrival's epoch."""
    data = [DataObject(data_id=0, name="d0", size_mb=64.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="early", tcp=1.0, data_ids=[0], num_tasks=1),
        Job(
            job_id=1,
            name="late",
            tcp=0.0,
            num_tasks=1,
            cpu_seconds_noinput=50.0,
            arrival_time=59_940.0,  # epoch 999 at 60s epochs
        ),
    ]
    c = EpochController(two_zone_cluster, epoch_length=60.0, max_epochs=2000)
    steps = 0
    original = EpochController.step

    def counting_step(self, *args, **kwargs):
        nonlocal steps
        steps += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EpochController, "step", counting_step)
    res = c.run(Workload(jobs=jobs, data=data))
    assert set(res.job_completion) == {0, 1}
    # without the jump this loop would step ~1000 times
    assert steps < 20
    assert res.makespan >= 59_940.0


def test_incremental_api_matches_run(two_zone_cluster, workload):
    """begin/submit/step/finish drives the identical schedule run() does."""
    ref = EpochController(two_zone_cluster, epoch_length=600.0).run(workload)

    c = EpochController(two_zone_cluster, epoch_length=600.0)
    c.begin()
    arrivals = sorted(workload.jobs, key=lambda j: (j.arrival_time, j.job_id))
    pending = list(arrivals)
    while pending or c.pending:
        start = c.epoch_index * c.epoch_length
        while pending and pending[0].arrival_time <= start:
            job = pending.pop(0)
            c.submit(job, workload.data[job.data_ids[0]] if job.data_ids else None)
        if not c.pending:
            c.skip_idle_to(pending[0].arrival_time)
            continue
        c.step()
    res = c.finish(workload.jobs)

    assert res.job_completion == ref.job_completion
    assert res.ledger.total == ref.ledger.total
    assert res.makespan == ref.makespan
