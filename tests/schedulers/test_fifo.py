"""Unit tests for the default FIFO-locality scheduler."""

import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import FifoScheduler
from repro.schedulers.fifo import ANY, NODE, ZONE, best_task_for
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
    b.add_machine("a0", ecu=2.0, cpu_cost=1e-5, zone="za")
    b.add_machine("a1", ecu=2.0, cpu_cost=1e-5, zone="za")
    b.add_machine("b0", ecu=2.0, cpu_cost=1e-5, zone="zb")
    return b.build()


def make_sim(cluster, jobs, data, **cfg):
    cfg.setdefault("placement_seed", 0)
    w = Workload(jobs=jobs, data=data)
    return HadoopSimulator(cluster, w, FifoScheduler(), SimConfig(**cfg))


def test_locality_levels(cluster):
    # one block, one replica, on a0's store
    data = [DataObject(data_id=0, name="d", size_mb=64.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=0.1, data_ids=[0], num_tasks=1)]
    sim = make_sim(cluster, jobs, data, replication=1, populate="origin")
    sim.scheduler.bind(sim)
    sim._populate()
    state = sim.jobtracker.submit(jobs[0], Workload(jobs=jobs, data=data), now=0.0)
    levels = [best_task_for(sim, state, t, now=0.0)[1:] for t in sim.trackers]
    assert levels == [(0, NODE), (0, ZONE), (0, ANY)]  # own store, same zone, cross zone


def test_fifo_order_respected(cluster):
    data = [DataObject(data_id=0, name="d", size_mb=64.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="first", tcp=1.0, data_ids=[0], num_tasks=1, arrival_time=0.0),
        Job(job_id=1, name="second", tcp=0.0, num_tasks=1, cpu_seconds_noinput=1.0, arrival_time=0.0),
    ]
    sim = make_sim(cluster, jobs, data)
    sim.run()
    # both complete; first job finished no later than second started + ran
    assert sim.jobtracker.jobs[0].finish_time is not None


def test_priority_preempts_fifo(cluster):
    # 6 slots; job 0 grabs them all at t=0, leaving 6 of its 12 tasks queued.
    # The later high-priority job must overtake those queued tasks.
    jobs = [
        Job(job_id=0, name="lowprio", tcp=0.0, num_tasks=12, cpu_seconds_noinput=600.0, priority=0),
        Job(job_id=1, name="highprio", tcp=0.0, num_tasks=12, cpu_seconds_noinput=600.0,
            priority=5, arrival_time=10.0),
    ]
    sim = make_sim(cluster, jobs, [])
    sim.run()
    assert sim.jobtracker.jobs[1].finish_time < sim.jobtracker.jobs[0].finish_time


def test_greedy_locality_prefers_local_block(cluster):
    data = [DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=0.1, data_ids=[0], num_tasks=10)]
    sim = make_sim(cluster, jobs, data, replication=3)
    res = sim.run()
    # replication 3 on a 3-node cluster: every block is everywhere-local
    assert res.metrics.data_locality == pytest.approx(1.0)


def test_best_task_for_honours_max_level(cluster):
    data = [DataObject(data_id=0, name="d", size_mb=64.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=0.1, data_ids=[0], num_tasks=1)]
    sim = make_sim(cluster, jobs, data, replication=1, populate="origin")
    sim.scheduler.bind(sim)
    sim._populate()
    w = Workload(jobs=jobs, data=data)
    state = sim.jobtracker.submit(jobs[0], w, now=0.0)
    # block lives on store 0 only; machine b0 (cross-zone) at NODE level: none
    found = best_task_for(sim, state, sim.trackers[2], now=0.0, max_level=NODE)
    assert found is None
    found_any = best_task_for(sim, state, sim.trackers[2], now=0.0, max_level=ANY)
    assert found_any is not None


def test_earliest_start_respected(cluster):
    jobs = [Job(job_id=0, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=10.0)]
    sim = make_sim(cluster, jobs, [])
    sim.scheduler.bind(sim)
    state = sim.jobtracker.submit(jobs[0], Workload(jobs=jobs, data=[]), now=0.0)
    for t in state.pending:
        t.earliest_start = 50.0
    assert best_task_for(sim, state, sim.trackers[0], now=0.0) is None
    assert best_task_for(sim, state, sim.trackers[0], now=60.0) is not None
