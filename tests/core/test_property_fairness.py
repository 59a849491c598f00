"""Property-based tests of the fair-share extension (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.co_online import solve_co_online
from repro.core.fairness import (
    FairShareConfig,
    fairness_rows,
    jains_index,
    pool_demands,
    pool_scheduled_cpu,
)
from repro.core.model import SchedulingInput
from repro.workload.job import DataObject, Job, Workload


@st.composite
def pooled_input(draw):
    n_machines = draw(st.integers(min_value=1, max_value=3))
    b = ClusterBuilder(topology=Topology.of(["z"]), default_uptime=10_000.0)
    for i in range(n_machines):
        b.add_machine(
            f"m{i}",
            ecu=draw(st.sampled_from([1.0, 2.0, 5.0])),
            cpu_cost=draw(st.floats(min_value=1e-6, max_value=1e-4)),
            zone="z",
        )
    cluster = b.build()
    pools = draw(st.lists(st.sampled_from(["p0", "p1", "p2"]), min_size=1, max_size=4))
    data, jobs = [], []
    for k, pool in enumerate(pools):
        d = DataObject(
            data_id=len(data),
            name=f"d{len(data)}",
            size_mb=draw(st.floats(min_value=64.0, max_value=1024.0)),
            origin_store=0,
        )
        data.append(d)
        jobs.append(
            Job(
                job_id=k,
                name=f"j{k}",
                tcp=draw(st.floats(min_value=0.1, max_value=2.0)),
                data_ids=[d.data_id],
                num_tasks=draw(st.integers(min_value=1, max_value=16)),
                pool=pool,
            )
        )
    epoch = draw(st.floats(min_value=20.0, max_value=2000.0))
    fulfillment = draw(st.floats(min_value=0.1, max_value=1.0))
    return SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data)), epoch, fulfillment


@given(pooled_input())
@settings(max_examples=25, deadline=None)
def test_guarantees_always_satisfiable_and_met(case):
    """The min(demand, share) cap keeps every guarantee feasible, and the
    solver honours it — over random pools/epochs/fulfilments."""
    inp, epoch, fulfillment = case
    cfg = FairShareConfig(fulfillment=fulfillment)
    sol = solve_co_online(
        inp,
        epoch_length=epoch, enforce_bandwidth=False,
        fairness=cfg,
    )
    rows = fairness_rows(inp, epoch, cfg)
    scheduled = pool_scheduled_cpu(inp, sol)
    demands = pool_demands(inp)
    pool_of = {tuple(sorted(ids.tolist())): p for p, (ids, _) in demands.items()}
    for ids, min_cpu in rows:
        pool = pool_of[tuple(sorted(ids.tolist()))]
        slack = 1e-6 * max(1.0, min_cpu)
        assert scheduled[pool] >= min_cpu - slack


@given(pooled_input())
@settings(max_examples=25, deadline=None)
def test_fairness_never_lowers_lp_objective(case):
    inp, epoch, fulfillment = case
    cfg = dict(epoch_length=epoch, enforce_bandwidth=False)
    plain = solve_co_online(inp, **cfg)
    fair = solve_co_online(inp, **cfg, fairness=FairShareConfig(fulfillment=fulfillment))
    scale = max(1.0, abs(plain.objective))
    assert fair.objective >= plain.objective - 1e-6 * scale


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_jains_index_bounds(values):
    j = jains_index(values)
    assert 1.0 / len(values) - 1e-12 <= j <= 1.0 + 1e-12
