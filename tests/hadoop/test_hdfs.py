"""Unit tests for the HDFS block/placement model."""

import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.hdfs import HDFS
from repro.workload.job import DataObject


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=10_000.0)
    for i in range(4):
        b.add_machine(f"m{i}", ecu=1.0, cpu_cost=1e-5, zone="za" if i < 2 else "zb")
    return b.build()


def data(size_mb=640.0, data_id=0):
    return DataObject(data_id=data_id, name=f"d{data_id}", size_mb=size_mb, origin_store=0)


def test_populate_splits_into_blocks(cluster):
    h = HDFS(cluster, replication=1)
    h.populate([data(640.0)])
    blocks = h.blocks_of(0)
    assert len(blocks) == 10
    assert sum(b.size_mb for b in blocks) == pytest.approx(640.0)


def test_last_block_is_remainder(cluster):
    h = HDFS(cluster, replication=1)
    h.populate([data(100.0)])
    blocks = h.blocks_of(0)
    assert [b.size_mb for b in blocks] == [64.0, 36.0]


def test_replication_creates_distinct_replicas(cluster):
    h = HDFS(cluster, replication=3)
    h.populate([data(128.0)])
    for b in h.blocks_of(0):
        assert len(b.replicas) == 3
        assert len(set(b.replicas)) == 3


def test_used_mb_accounts_replicas(cluster):
    h = HDFS(cluster, replication=2)
    h.populate([data(128.0)])
    assert h.total_stored_mb() == pytest.approx(256.0)


def test_capacity_respected(cluster):
    h = HDFS(cluster, replication=1)
    # 4 stores x 10 GB: 50 GB cannot fit
    with pytest.raises(RuntimeError, match="capacity"):
        h.populate([data(50_000.0)])


def test_double_populate_rejected(cluster):
    h = HDFS(cluster, replication=1)
    h.populate([data(64.0)])
    with pytest.raises(ValueError, match="already populated"):
        h.populate([data(64.0)])


def test_local_blocks_query(cluster):
    h = HDFS(cluster, replication=1, seed=1)
    h.populate([data(640.0)])
    total_local = sum(len(h.local_blocks(0, m.machine_id)) for m in cluster.machines)
    assert total_local == 10  # every block local to exactly one machine


def test_stores_with(cluster):
    h = HDFS(cluster, replication=1, seed=1)
    h.populate([data(640.0)])
    stores = h.stores_with(0)
    assert stores <= {0, 1, 2, 3}
    assert stores  # at least one


def test_move_block_updates_everything(cluster):
    h = HDFS(cluster, replication=2, seed=0)
    h.populate([data(64.0)])
    block = h.blocks_of(0)[0]
    before = h.total_stored_mb()
    target = next(s for s in range(4) if s not in block.replicas)
    moved = h.move_block(block, target)
    assert moved == pytest.approx(64.0)
    assert block.replicas == [target]
    # replica collapse frees the duplicate copy
    assert h.total_stored_mb() == pytest.approx(before - 64.0)


def test_move_block_noop_when_present(cluster):
    h = HDFS(cluster, replication=1, seed=0)
    h.populate([data(64.0)])
    block = h.blocks_of(0)[0]
    assert h.move_block(block, block.replicas[0]) == 0.0


def test_random_placement_deterministic_by_seed(cluster):
    a = HDFS(cluster, replication=1, seed=5)
    a.populate([data(640.0)])
    b = HDFS(cluster, replication=1, seed=5)
    b.populate([data(640.0)])
    assert [x.replicas for x in a.blocks_of(0)] == [x.replicas for x in b.blocks_of(0)]
