"""Unit tests for the MS/SS/B matrix derivation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterBuilder, build_paper_testbed
from repro.cluster.ec2 import transfer_cost_per_mb
from repro.cluster.machine import Machine
from repro.cluster.network import LOCAL_READ_MB_PER_S, NetworkModel
from repro.cluster.storage import DataStore
from repro.cluster.topology import Topology, Zone


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]))
    b.add_machine("a0", ecu=1.0, cpu_cost=1e-5, zone="za")
    b.add_machine("b0", ecu=1.0, cpu_cost=1e-5, zone="zb")
    b.add_remote_store("s3", capacity_mb=1e6, zone="zb")
    return b.build()


def test_local_read_free_and_fast(cluster):
    net = cluster.network
    # machine 0's own store is store 0
    assert net.ms_cost[0, 0] == 0.0
    assert net.bandwidth[0, 0] == LOCAL_READ_MB_PER_S


def test_intra_zone_remote_read_free_but_slower(cluster):
    net = cluster.network
    # machine 1 (zb) reading the remote s3 store (zb): free, intra-zone bw
    assert net.ms_cost[1, 2] == 0.0
    assert net.bandwidth[1, 2] == pytest.approx(500.0 / 8.0)


def test_cross_zone_read_priced(cluster):
    net = cluster.network
    expected = transfer_cost_per_mb(cross_zone=True)
    assert net.ms_cost[0, 1] == pytest.approx(expected)
    assert net.bandwidth[0, 1] == pytest.approx(250.0 / 8.0)


def test_ss_matrix_zero_diagonal(cluster):
    assert np.all(np.diag(cluster.network.ss_cost) == 0.0)


def test_ss_cross_zone_priced(cluster):
    net = cluster.network
    assert net.ss_cost[0, 1] == pytest.approx(transfer_cost_per_mb(cross_zone=True))
    assert net.ss_cost[1, 2] == 0.0  # both in zb


def test_intra_zone_cost_override():
    b = ClusterBuilder(topology=Topology.of(["z"]))
    b.add_machine("m0", ecu=1.0, cpu_cost=1e-5, zone="z")
    b.add_machine("m1", ecu=1.0, cpu_cost=1e-5, zone="z")
    c = b.build(intra_zone_cost_per_mb=5e-6)
    # remote intra-zone read now costs; local stays free
    assert c.network.ms_cost[0, 1] == pytest.approx(5e-6)
    assert c.network.ms_cost[0, 0] == 0.0


def test_unknown_zone_rejected():
    from repro.cluster.machine import Machine
    from repro.cluster.storage import DataStore

    with pytest.raises(ValueError, match="unknown zone"):
        NetworkModel(
            machines=[Machine(machine_id=0, name="m", ecu=1.0, cpu_cost=0.0, zone="ghost")],
            stores=[DataStore(store_id=0, name="s", capacity_mb=1.0, zone="ghost")],
            topology=Topology.of(["real"]),
        )


def test_store_bandwidth_same_store_is_local(cluster):
    assert cluster.network.store_bandwidth(0, 0) == LOCAL_READ_MB_PER_S
    assert cluster.network.store_bandwidth(0, 1) == pytest.approx(250.0 / 8.0)


def per_pair_matrices(net):
    """The per-(machine, store) loops the zone-table gather replaced."""
    machines, stores = net.machines, net.stores
    ss = np.zeros((len(stores), len(stores)))
    for i, si in enumerate(stores):
        for j, sj in enumerate(stores):
            if i != j:
                ss[i, j] = net._pair_cost(si.zone, sj.zone)
    ms = np.zeros((len(machines), len(stores)))
    bw = np.zeros((len(machines), len(stores)))
    for l, mach in enumerate(machines):
        for m, store in enumerate(stores):
            if store.colocated_machine == mach.machine_id:
                ms[l, m], bw[l, m] = 0.0, LOCAL_READ_MB_PER_S
            else:
                ms[l, m] = net._pair_cost(mach.zone, store.zone)
                bw[l, m] = net.topology.bandwidth_mb_per_s(mach.zone, store.zone)
    return ss, ms, bw


def assert_matches_oracle(net):
    """``ss_cost``/``ms_cost``/``bandwidth`` equal the oracle byte for byte."""
    for actual, expected in zip((net.ss_cost, net.ms_cost, net.bandwidth), per_pair_matrices(net)):
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
        assert actual.flags.c_contiguous
        assert actual.tobytes() == expected.tobytes()


@st.composite
def layouts(draw):
    n_zones = draw(st.integers(min_value=1, max_value=5))
    topo = Topology(inter_bandwidth_mbps=draw(st.sampled_from([100.0, 250.0, 1000.0])))
    for z in range(n_zones):
        topo.add_zone(Zone(f"z{z}", intra_bandwidth_mbps=draw(st.sampled_from([300.0, 500.0]))))
    names = topo.zone_names()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        topo.set_bandwidth(a, b, draw(st.floats(min_value=1.0, max_value=2000.0)))
    zone = st.sampled_from(names)
    machines = [
        Machine(machine_id=i, name=f"m{i}", ecu=1.0, cpu_cost=0.0, zone=draw(zone))
        for i in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    # co-located, remote, or pointing at a machine id the list does not hold
    hosts = st.one_of(st.none(), st.integers(min_value=0, max_value=9))
    stores = [
        DataStore(store_id=j, name=f"s{j}", capacity_mb=1.0, zone=draw(zone),
                  colocated_machine=draw(hosts))
        for j in range(draw(st.integers(min_value=0, max_value=8)))
    ]
    intra = draw(st.sampled_from([0.0, 5e-6, 2e-5]))
    return NetworkModel(machines, stores, topo, intra_zone_cost_per_mb=intra)


@settings(max_examples=150, deadline=None)
@given(layouts())
def test_zone_tables_match_the_per_pair_oracle(net):
    assert_matches_oracle(net)


@pytest.mark.parametrize("nodes,seed", [(6, 0), (20, 1), (100, 2014)])
def test_paper_testbed_matches_the_per_pair_oracle(nodes, seed):
    assert_matches_oracle(build_paper_testbed(nodes, c1_medium_fraction=0.3, seed=seed).network)


def test_build_evaluates_each_zone_pair_once(monkeypatch):
    """A 300-node set-up prices and sizes zone pairs, not node pairs."""
    calls = {"cost": 0, "bw": 0}
    pair_cost, bandwidth = NetworkModel._pair_cost, Topology.bandwidth_mb_per_s

    def counted_cost(self, a, b):
        calls["cost"] += 1
        return pair_cost(self, a, b)

    def counted_bw(self, a, b):
        calls["bw"] += 1
        return bandwidth(self, a, b)

    monkeypatch.setattr(NetworkModel, "_pair_cost", counted_cost)
    monkeypatch.setattr(Topology, "bandwidth_mb_per_s", counted_bw)
    cluster = build_paper_testbed(300, seed=0)
    zones = len(cluster.topology.zones)
    assert 0 < calls["cost"] <= zones**2
    assert 0 < calls["bw"] <= zones**2
