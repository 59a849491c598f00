"""Unit tests for the Figure 4 online epoch model and the fake node."""

import numpy as np
import pytest

from repro.core.assembly import fake_unit_costs
from repro.core.co_offline import solve_co_offline
from repro.core.co_online import solve_co_online
from repro.core.solution import validate_solution


def test_config_validation(small_input):
    with pytest.raises(ValueError, match="epoch_length"):
        solve_co_online(small_input, epoch_length=0.0)


def test_always_feasible_even_with_tiny_epoch(small_input):
    sol = solve_co_online(small_input, epoch_length=1.0)
    # almost nothing fits in one second: the bulk parks on the fake node,
    # yet every job is still fully covered (scheduled + fake == 1)
    assert sol.fake.sum() >= small_input.num_jobs - 0.5
    assert np.all(sol.job_coverage() >= 1.0 - 1e-6)


def test_no_fake_when_capacity_ample(small_input):
    sol = solve_co_online(small_input, epoch_length=10_000.0)
    assert sol.fake.sum() == pytest.approx(0.0, abs=1e-6)


def test_fake_used_iff_capacity_short(small_input):
    """Scan epochs: fake usage must be monotone non-increasing in epoch."""
    usages = []
    for e in (10.0, 100.0, 400.0, 2000.0, 10_000.0):
        sol = solve_co_online(small_input, epoch_length=e)
        usages.append(sol.fake.sum())
    assert all(a >= b - 1e-6 for a, b in zip(usages, usages[1:]))


def test_epoch_capacity_respected(small_input):
    e = 500.0
    sol = solve_co_online(small_input, epoch_length=e)
    rep = validate_solution(small_input, sol, horizon=e, check_epoch_bandwidth=True)
    assert rep.ok, rep.violations


def test_bandwidth_constraint_21_binds():
    """A big object on a remote-only store forces multi-machine fan-out."""
    from repro.cluster.builder import ClusterBuilder
    from repro.cluster.topology import Topology
    from repro.core.model import SchedulingInput
    from repro.workload.job import DataObject, Job, Workload

    # machines without local stores: all reads stream from the shared
    # remote store at 62.5 MB/s.  20 GB needs ~328 s per machine, so a
    # 200 s epoch cannot push the whole job through one machine's NIC.
    b = ClusterBuilder(topology=Topology.of(["z"]), default_uptime=10_000.0)
    for i in range(4):
        b.add_machine(f"m{i}", ecu=50.0, cpu_cost=1e-5, zone="z", with_store=False)
    b.add_remote_store("shared", capacity_mb=1e6, zone="z")
    cluster = b.build()

    data = [DataObject(data_id=0, name="big", size_mb=20 * 1024.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=0.01, data_ids=[0], num_tasks=320)]
    inp = SchedulingInput.from_parts(cluster, Workload(jobs=jobs, data=data))
    sol = solve_co_online(inp, epoch_length=200.0)
    scheduled = sol.xt_data[0].sum()
    assert scheduled > 0.5  # CPU is ample; only bandwidth limits
    machines_used = (sol.xt_data[0].sum(axis=1) > 1e-6).sum()
    assert machines_used >= 2
    rep = validate_solution(inp, sol, horizon=200.0, check_epoch_bandwidth=True)
    assert rep.ok, rep.violations


def test_bandwidth_constraint_can_be_disabled(small_input):
    sol = solve_co_online(
        small_input,
        epoch_length=500.0, enforce_bandwidth=False,
    )
    assert validate_solution(small_input, sol, horizon=500.0).ok


def test_fake_cost_dominates_real_cost(small_input):
    fc = fake_unit_costs(small_input)
    # parking any job on F must cost more than the most expensive real run
    worst_real = small_input.jm.max(axis=1) + small_input.size_mb * (
        small_input.ms_cost.max() + small_input.ss_cost.max()
    )
    assert np.all(fc > worst_real)


def test_objective_includes_fake_penalty(small_input):
    sol = solve_co_online(small_input, epoch_length=50.0)
    bd = sol.cost_breakdown(small_input)
    assert bd.total == pytest.approx(sol.objective, rel=1e-6)
    assert bd.fake > 0
    assert bd.real_total < bd.total


def test_online_with_ample_epoch_matches_offline(small_input):
    online = solve_co_online(
        small_input, epoch_length=10_000.0, enforce_bandwidth=False
    )
    offline = solve_co_offline(small_input)
    assert online.objective == pytest.approx(offline.objective, rel=1e-6)


def test_remaining_store_capacity_honoured(small_input):
    remaining = np.array([700.0, 0.0, 0.0, 400.0])
    sol = solve_co_online(
        small_input,
        epoch_length=10_000.0,
        store_capacity=remaining,
    )
    load = sol.store_data_load(small_input)
    assert np.all(load <= remaining * (1 + 1e-6) + 1e-9)
