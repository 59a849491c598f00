"""Integration-level tests of the Hadoop simulator."""

import pytest

from repro.cluster.builder import ClusterBuilder, build_paper_testbed
from repro.cluster.topology import Topology
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import FifoScheduler
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
    b.add_machine("a0", ecu=2.0, cpu_cost=5e-5, zone="za")
    b.add_machine("b0", ecu=5.0, cpu_cost=1e-5, zone="zb")
    return b.build()


@pytest.fixture
def workload():
    data = [DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=100.0, arrival_time=30.0),
    ]
    return Workload(jobs=jobs, data=data)


def run(cluster, workload, **cfg):
    sim = HadoopSimulator(cluster, workload, FifoScheduler(), SimConfig(**cfg))
    return sim, sim.run()


def test_all_tasks_complete(cluster, workload):
    sim, res = run(cluster, workload)
    assert res.metrics.tasks_run == 12
    assert sim.jobtracker.all_complete()


def test_makespan_after_last_arrival(cluster, workload):
    _, res = run(cluster, workload)
    assert res.metrics.makespan > 30.0


def test_cpu_cost_conservation(cluster, workload):
    """Ledger CPU dollars == sum over tasks of cpu x host price."""
    sim, res = run(cluster, workload)
    total_cpu_cost = res.metrics.ledger.category_total("cpu")
    recomputed = 0.0
    for m_id, cpu in res.metrics.machine_cpu_seconds.items():
        recomputed += cpu * cluster.machines[m_id].cpu_cost
    assert total_cpu_cost == pytest.approx(recomputed, rel=1e-9)


def test_total_cpu_seconds_conserved(cluster, workload):
    _, res = run(cluster, workload)
    assert sum(res.metrics.machine_cpu_seconds.values()) == pytest.approx(
        workload.total_cpu_seconds(), rel=1e-9
    )


def test_read_accounting_totals(cluster, workload):
    _, res = run(cluster, workload)
    assert res.metrics.total_read_mb == pytest.approx(640.0)


def test_determinism_same_seed(cluster, workload):
    _, a = run(cluster, workload, placement_seed=3)
    _, b = run(cluster, workload, placement_seed=3)
    assert a.metrics.total_cost == b.metrics.total_cost
    assert a.metrics.makespan == b.metrics.makespan


def test_placement_seed_changes_layout(cluster, workload):
    _, a = run(cluster, workload, placement_seed=1)
    _, b = run(cluster, workload, placement_seed=2)
    # different layouts usually change locality mix (not guaranteed equal)
    assert (
        a.metrics.local_read_mb != b.metrics.local_read_mb
        or a.metrics.total_cost != b.metrics.total_cost
        or True  # smoke: both ran to completion
    )


def test_origin_populate_mode(cluster, workload):
    sim, res = run(cluster, workload, populate="origin", replication=1)
    # every block of data 0 sits at its origin store 0
    for block in sim.hdfs.blocks_of(0):
        assert block.replicas == [0]


def test_utilization_in_unit_range(cluster, workload):
    _, res = run(cluster, workload)
    slots = sum(m.map_slots for m in cluster.machines)
    u = res.metrics.utilization(slots)
    assert 0.0 < u <= 1.0


def test_incomplete_detection():
    """A scheduler that never assigns must raise, not hang."""
    from repro.schedulers.base import TaskScheduler

    class NeverScheduler(TaskScheduler):
        def select_task(self, tracker, now):
            return None

    b = ClusterBuilder(topology=Topology.of(["z"]))
    b.add_machine("m", ecu=1.0, cpu_cost=0.0, zone="z")
    cluster = b.build()
    w = Workload(
        jobs=[Job(job_id=0, name="pi", tcp=0.0, num_tasks=1, cpu_seconds_noinput=1.0)],
        data=[],
    )
    sim = HadoopSimulator(cluster, w, NeverScheduler(), SimConfig(starvation_timeout_s=60.0))
    with pytest.raises(RuntimeError, match="starvation"):
        sim.run()


def test_lost_task_raises_instead_of_spinning(cluster, workload):
    """A task neither pending, running nor completed stops the run at the
    first idle heartbeat instead of firing timers until ``max_events``."""

    class LosingScheduler(FifoScheduler):
        def on_job_added(self, job, now):
            super().on_job_added(job, now)
            if job.job.name == "pi":
                job.take_pending(job.pending[-1])  # neither launched nor re-queued

    sim = HadoopSimulator(cluster, workload, LosingScheduler(), SimConfig())
    with pytest.raises(RuntimeError, match=r"starvation: 1 incomplete jobs .*\['pi'\]"):
        sim.run()
    assert sim.now < 3600.0


def test_paper_testbed_end_to_end():
    from repro.workload.apps import table4_jobs

    cluster = build_paper_testbed(12, c1_medium_fraction=0.5, seed=2)
    sim = HadoopSimulator(cluster, table4_jobs(), FifoScheduler(), SimConfig(placement_seed=4))
    res = sim.run()
    assert res.metrics.tasks_run == 1608
    assert res.metrics.total_cost > 0
