"""Verify DESIGN.md's zone-aggregation claim.

The LiPS simulator scheduler solves its LP over one virtual store per zone
and claims this is *cost-exact* under the paper's EC2 pricing (intra-zone
transfer free, flat cross-zone price): every store in a zone is
price-equivalent, so only the zone choice affects dollars.  These tests pin
that equivalence — and its known limitation (the bandwidth constraint (21)
sees the slower shared-fabric rate instead of local disk, so with (21)
enabled the zone model is conservative, never optimistic).
"""

import pytest

from repro.cluster.builder import build_paper_testbed
from repro.core.co_online import solve_co_online
from repro.core.model import SchedulingInput
from repro.schedulers.lips import build_zone_aggregate
from repro.workload.job import DataObject, Job, Workload


def _workload(num_stores, zone_of_store):
    data = [
        DataObject(data_id=0, name="a", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="b", size_mb=320.0, origin_store=min(3, num_stores - 1)),
    ]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.4, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="count", tcp=1.4, data_ids=[1], num_tasks=5),
        Job(job_id=2, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=300.0),
    ]
    return Workload(jobs=jobs, data=data)


def _zone_workload(cluster, zone_cluster, workload):
    """Re-express origins as zone-store indices for the aggregated model."""
    zone_names = cluster.topology.zone_names()
    data = []
    for d in workload.data:
        zone = cluster.stores[d.origin_store].zone
        data.append(
            DataObject(
                data_id=d.data_id,
                name=d.name,
                size_mb=d.size_mb,
                origin_store=zone_names.index(zone),
            )
        )
    return Workload(jobs=list(workload.jobs), data=data)


@pytest.fixture(scope="module")
def setting():
    cluster = build_paper_testbed(9, c1_medium_fraction=1 / 3, seed=2)
    zone_cluster = build_zone_aggregate(cluster)
    w = _workload(cluster.num_stores, None)
    zw = _zone_workload(cluster, zone_cluster, w)
    return cluster, zone_cluster, w, zw


def test_cost_exact_without_bandwidth_constraint(setting):
    cluster, zone_cluster, w, zw = setting
    cfg = dict(epoch_length=50_000.0, enforce_bandwidth=False)
    full = solve_co_online(SchedulingInput.from_parts(cluster, w), **cfg)
    zone = solve_co_online(SchedulingInput.from_parts(zone_cluster, zw), **cfg)
    assert zone.objective == pytest.approx(full.objective, rel=1e-6)


def test_zone_model_conservative_with_bandwidth(setting):
    cluster, zone_cluster, w, zw = setting
    cfg = dict(epoch_length=300.0, enforce_bandwidth=True)
    full = solve_co_online(SchedulingInput.from_parts(cluster, w), **cfg)
    zone = solve_co_online(SchedulingInput.from_parts(zone_cluster, zw), **cfg)
    # the zone fabric (62.5 MB/s) is slower than local disk (400 MB/s), so
    # the aggregated model can only be more constrained — never cheaper
    assert zone.objective >= full.objective * (1 - 1e-9)


def test_exactness_breaks_with_intra_zone_pricing():
    """The claim is specific to free intra-zone transfer: price it and the
    zone model (whose intra-zone reads cost the same 'free' rate as local
    ones) diverges from the store-granular truth."""
    from repro.cluster.builder import ClusterBuilder
    from repro.cluster.topology import Topology

    b = ClusterBuilder(topology=Topology.of(["z"]), default_uptime=50_000.0)
    # data originates next to the pricey machine; the cheap ones must pay
    # intra-zone transfer in the store-granular truth
    b.add_machine("pricey", ecu=2.0, cpu_cost=5e-5, zone="z")
    b.add_machine("cheap-0", ecu=2.0, cpu_cost=1e-5, zone="z")
    b.add_machine("cheap-1", ecu=2.0, cpu_cost=1e-5, zone="z")
    cluster = b.build(intra_zone_cost_per_mb=2e-6)  # non-EC2: intra costs
    zone_cluster = build_zone_aggregate(cluster)
    w = _workload(cluster.num_stores, None)
    zw = _zone_workload(cluster, zone_cluster, w)
    cfg = dict(epoch_length=50_000.0, enforce_bandwidth=False)
    full = solve_co_online(SchedulingInput.from_parts(cluster, w), **cfg)
    zone = solve_co_online(SchedulingInput.from_parts(zone_cluster, zw), **cfg)
    # store-granular model pays intra-zone remote reads; the zone model
    # can't see them: objectives differ
    assert abs(zone.objective - full.objective) > 1e-6
