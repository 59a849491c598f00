"""Tests for the Quincy-style min-cost-flow scheduler."""

import networkx as nx
import numpy as np
import pytest

import repro.lp
from repro.cluster.builder import ClusterBuilder, build_paper_testbed
from repro.cluster.topology import Topology
from repro.hadoop.failures import FailurePlan
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import FifoScheduler, QuincyScheduler
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
    b.add_machine("a0", ecu=2.0, cpu_cost=5e-5, zone="za")
    b.add_machine("a1", ecu=2.0, cpu_cost=5e-5, zone="za")
    b.add_machine("b0", ecu=5.0, cpu_cost=1e-5, zone="zb")
    return b.build()


@pytest.fixture
def workload():
    data = [DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="pi", tcp=0.0, num_tasks=4, cpu_seconds_noinput=400.0),
    ]
    return Workload(jobs=jobs, data=data)


def run(cluster, w, sched, **cfg):
    cfg.setdefault("placement_seed", 3)
    cfg.setdefault("speculative", False)
    sim = HadoopSimulator(cluster, w, sched, SimConfig(**cfg))
    return sim, sim.run()


def test_parameter_validation():
    with pytest.raises(ValueError):
        QuincyScheduler(objective="speed")
    with pytest.raises(ValueError):
        QuincyScheduler(refresh_s=0.0)
    with pytest.raises(ValueError):
        QuincyScheduler(slots_lookahead=0)


def test_completes_all_tasks(cluster, workload):
    sched = QuincyScheduler("locality")
    sim, res = run(cluster, workload, sched)
    assert res.metrics.tasks_run == 14
    assert sched.solves >= 1


def test_locality_objective_maximises_locality(cluster, workload):
    sched = QuincyScheduler("locality")
    _, quincy = run(cluster, workload, sched, replication=1)
    _, fifo = run(cluster, workload, FifoScheduler(), replication=1)
    assert quincy.metrics.data_locality >= fifo.metrics.data_locality - 1e-9


def test_dollar_objective_cheaper_than_locality(cluster, workload):
    _, loc = run(cluster, workload, QuincyScheduler("locality"))
    _, dol = run(cluster, workload, QuincyScheduler("dollars"))
    assert dol.metrics.total_cost <= loc.metrics.total_cost * 1.01


def test_dollar_objective_prefers_cheap_machine(cluster, workload):
    _, res = run(cluster, workload, QuincyScheduler("dollars"))
    cpu = res.metrics.machine_cpu_seconds
    total = sum(cpu.values())
    # machine 2 (b0) is 5x cheaper: it should dominate
    assert cpu.get(2, 0.0) / total > 0.6


def test_batchwise_resolve_counts(cluster, workload):
    sched = QuincyScheduler("locality", slots_lookahead=1)
    _, _ = run(cluster, workload, sched)
    more = QuincyScheduler("locality", slots_lookahead=4)
    _, _ = run(cluster, workload, more)
    # more lookahead => fewer solves
    assert more.solves <= sched.solves


def test_survives_machine_failure(cluster, workload):
    plan = FailurePlan()
    plan.add(0, fail_time=5.0)
    sim, res = run(
        cluster, workload, QuincyScheduler("locality"),
        replication=2, placement_seed=3,
    )
    assert sim.jobtracker.all_complete()
    sim2 = HadoopSimulator(
        cluster, workload, QuincyScheduler("locality"),
        SimConfig(replication=2, placement_seed=3, speculative=False),
        failures=plan,
    )
    res2 = sim2.run()
    assert sim2.jobtracker.all_complete()
    assert res2.metrics.machine_failures == 1


def test_deterministic(cluster, workload):
    def once():
        _, res = run(cluster, workload, QuincyScheduler("dollars"))
        return (res.metrics.total_cost, res.metrics.makespan)

    assert once() == once()


def test_paper_testbed_run():
    cluster = build_paper_testbed(9, c1_medium_fraction=1 / 3, seed=2)
    data = [DataObject(data_id=0, name="d", size_mb=1280.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=0.4, data_ids=[0], num_tasks=20)]
    sim, res = run(cluster, Workload(jobs=jobs, data=data), QuincyScheduler("dollars"))
    assert res.metrics.tasks_run == 20


class RecordingBackend:
    """The default backend, keeping every model it solves and its result."""

    def __init__(self, inner):
        self.inner = inner
        self.solves = []

    def solve_assembled(self, asm):
        result = self.inner.solve_assembled(asm)
        self.solves.append((asm, result))
        return result


def min_cost_flow_objective(asm, scale=10**15):
    """Solve Quincy's LP as the network it encodes, with networkx.

    Rows of ``a_eq`` are tasks (unit supply), rows of ``a_ub`` machines
    (slot caps); a task's column is an arc to the machine whose row holds
    it, or to the "unscheduled" node.  networkx's network simplex wants
    integer weights, so costs are scaled; the returned objective is the
    optimal flow priced at the unscaled costs.
    """
    machine_of = {
        int(col): row
        for row in range(asm.a_ub.shape[0])
        for col in asm.a_ub.indices[asm.a_ub.indptr[row]:asm.a_ub.indptr[row + 1]]
    }
    n_tasks = asm.a_eq.shape[0]
    g = nx.DiGraph()
    g.add_node("src", demand=-n_tasks)
    g.add_node("sink", demand=n_tasks)
    g.add_edge("U", "sink", capacity=n_tasks, weight=0)
    for row, cap in enumerate(asm.b_ub):
        g.add_edge(("m", row), "sink", capacity=int(cap), weight=0)
    arc_col = {}
    for task in range(n_tasks):
        g.add_edge("src", ("t", task), capacity=1, weight=0)
        for col in asm.a_eq.indices[asm.a_eq.indptr[task]:asm.a_eq.indptr[task + 1]]:
            head = ("m", machine_of[col]) if col in machine_of else "U"
            arc_col[(("t", task), head)] = col
            g.add_edge(("t", task), head, capacity=1, weight=round(asm.c[col] * scale))
    flow = nx.min_cost_flow(g)
    return sum(asm.c[col] * flow[tail][head] for (tail, head), col in arc_col.items())


@pytest.mark.parametrize("objective", ["locality", "dollars"])
def test_flow_lp_matches_networkx_min_cost_flow(cluster, workload, monkeypatch, objective):
    recorder = RecordingBackend(repro.lp.DEFAULT_BACKEND)
    monkeypatch.setattr(repro.lp, "DEFAULT_BACKEND", recorder)
    # one wave of slots per machine: the caps bind and tasks queue on U
    sched = QuincyScheduler(objective, slots_lookahead=1)
    run(cluster, workload, sched, replication=1)
    assert len(recorder.solves) == sched.solves >= 3
    assert recorder.solves[0][1].objective > 0
    for asm, result in recorder.solves:
        assert result.is_optimal
        assert np.abs(result.x - np.round(result.x)).max() <= 1e-9
        want = min_cost_flow_objective(asm)
        assert result.objective == pytest.approx(want, rel=1e-9, abs=0.0)
