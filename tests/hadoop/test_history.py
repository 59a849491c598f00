"""Tests for the job-history attempt log."""

import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.failures import FailurePlan
from repro.hadoop.history import KILLED
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import FifoScheduler
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["z"]), store_capacity_mb=1e6)
    for i in range(2):
        b.add_machine(f"m{i}", ecu=2.0, cpu_cost=1e-5, zone="z")
    return b.build()


@pytest.fixture
def workload():
    data = [DataObject(data_id=0, name="d", size_mb=320.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=5),
        Job(job_id=1, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=100.0),
    ]
    return Workload(jobs=jobs, data=data)


def run(cluster, w, **cfg):
    cfg.setdefault("placement_seed", 1)
    cfg.setdefault("record_history", True)
    sim = HadoopSimulator(cluster, w, FifoScheduler(), SimConfig(**cfg))
    return sim, sim.run()


class TestRecording:
    def test_one_record_per_task(self, cluster, workload):
        sim, res = run(cluster, workload)
        assert sim.history is not None
        assert len(sim.history.successes()) == 7

    def test_disabled_by_default(self, cluster, workload):
        sim = HadoopSimulator(cluster, workload, FifoScheduler(), SimConfig())
        sim.run()
        assert sim.history is None

    def test_records_carry_placement(self, cluster, workload):
        sim, _ = run(cluster, workload)
        for r in sim.history.for_job(0):
            assert r.source_store is not None
            assert r.finish_time > r.start_time
        for r in sim.history.for_job(1):
            assert r.source_store is None

    def test_killed_attempts_recorded(self, cluster, workload):
        plan = FailurePlan()
        plan.add(0, fail_time=5.0, recover_time=500.0)
        sim = HadoopSimulator(
            cluster, workload, FifoScheduler(),
            SimConfig(placement_seed=1, record_history=True), failures=plan,
        )
        sim.run()
        killed = sim.history.killed()
        assert killed
        assert all(r.outcome == KILLED and r.detail == "machine-failure" for r in killed)

    def test_span_matches_makespan(self, cluster, workload):
        sim, res = run(cluster, workload)
        assert sim.history.span() == pytest.approx(res.metrics.makespan)
