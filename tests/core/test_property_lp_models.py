"""Property-based tests of the LiPS LP models (hypothesis).

Invariants, over random clusters/workloads:

* every optimal solution satisfies the paper's printed constraints;
* the objective equals the independent cost evaluation;
* co-scheduling never costs more than fixed-placement scheduling;
* the online model with an ample epoch matches the offline optimum;
* scaling all prices scales the optimum linearly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.core.co_offline import solve_co_offline
from repro.core.co_online import solve_co_online
from repro.core.model import SchedulingInput
from repro.core.simple_task import solve_simple_task
from repro.core.solution import validate_solution
from repro.workload.job import DataObject, Job, Workload


@st.composite
def scheduling_input(draw):
    n_machines = draw(st.integers(min_value=1, max_value=4))
    n_jobs = draw(st.integers(min_value=1, max_value=4))
    zones = ["z0", "z1"]
    b = ClusterBuilder(topology=Topology.of(zones), default_uptime=50_000.0)
    for i in range(n_machines):
        b.add_machine(
            f"m{i}",
            ecu=draw(st.sampled_from([1.0, 2.0, 5.0])),
            cpu_cost=draw(st.floats(min_value=1e-6, max_value=1e-4)),
            zone=zones[i % 2],
        )
    cluster = b.build()

    data, jobs = [], []
    for k in range(n_jobs):
        if draw(st.booleans()) or not data or True:
            has_input = draw(st.integers(min_value=0, max_value=3)) > 0
        if has_input:
            d = DataObject(
                data_id=len(data),
                name=f"d{len(data)}",
                size_mb=draw(st.floats(min_value=64.0, max_value=2048.0)),
                origin_store=draw(st.integers(min_value=0, max_value=n_machines - 1)),
            )
            data.append(d)
            jobs.append(
                Job(
                    job_id=k,
                    name=f"j{k}",
                    tcp=draw(st.floats(min_value=0.01, max_value=2.0)),
                    data_ids=[d.data_id],
                    num_tasks=draw(st.integers(min_value=1, max_value=32)),
                )
            )
        else:
            jobs.append(
                Job(
                    job_id=k,
                    name=f"j{k}",
                    tcp=0.0,
                    num_tasks=draw(st.integers(min_value=1, max_value=8)),
                    cpu_seconds_noinput=draw(st.floats(min_value=1.0, max_value=1000.0)),
                )
            )
    return SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data))


@given(scheduling_input())
@settings(max_examples=30, deadline=None)
def test_co_offline_solution_satisfies_paper_constraints(inp):
    sol = solve_co_offline(inp)
    report = validate_solution(inp, sol)
    assert report.ok, report.violations


@given(scheduling_input())
@settings(max_examples=30, deadline=None)
def test_objective_equals_independent_cost(inp):
    sol = solve_co_offline(inp)
    bd = sol.cost_breakdown(inp)
    assert bd.total == pytest.approx(sol.objective, rel=1e-6, abs=1e-9)


@given(scheduling_input())
@settings(max_examples=30, deadline=None)
def test_co_scheduling_dominates_fixed_placement(inp):
    fixed = solve_simple_task(inp)
    co = solve_co_offline(inp)
    assert co.objective <= fixed.objective * (1 + 1e-9) + 1e-12


@given(scheduling_input())
@settings(max_examples=20, deadline=None)
def test_online_ample_epoch_matches_offline(inp):
    offline = solve_co_offline(inp)
    online = solve_co_online(
        inp, epoch_length=1e6, enforce_bandwidth=False
    )
    assert online.fake.sum() == pytest.approx(0.0, abs=1e-6)
    assert online.objective == pytest.approx(offline.objective, rel=1e-6, abs=1e-9)


@given(scheduling_input(), st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=20, deadline=None)
def test_price_scaling_scales_optimum(inp, scale):
    base = solve_co_offline(inp)
    scaled_inp = SchedulingInput.from_parts(
        inp.cluster,
        inp.workload,
        ms_cost=inp.ms_cost * scale,
        ss_cost=inp.ss_cost * scale,
    )
    # CPU prices scale through jm
    scaled_inp.jm = inp.jm * scale
    scaled = solve_co_offline(scaled_inp)
    assert scaled.objective == pytest.approx(base.objective * scale, rel=1e-6, abs=1e-9)


@given(scheduling_input())
@settings(max_examples=20, deadline=None)
def test_online_fake_monotone_in_epoch(inp):
    prev = None
    for e in (10.0, 1000.0, 100_000.0):
        sol = solve_co_online(inp, epoch_length=e, enforce_bandwidth=False)
        used = sol.fake.sum()
        if prev is not None:
            assert used <= prev + 1e-6
        prev = used
