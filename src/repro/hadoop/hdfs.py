"""HDFS model: blocks, replication and placement policies.

The NameNode side of Hadoop as the scheduler sees it: every data object is
split into 64 MB blocks, each replicated onto ``replication`` distinct data
stores by a :class:`PlacementPolicy`.  ``SimConfig.populate`` picks the
initial policy: random (the default), capacity-aware, or every block at its
origin; LiPS then moves blocks where its plan places the data.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.cluster.builder import Cluster
from repro.workload.job import DataObject


@dataclass
class Block:
    """One HDFS block of a data object."""

    block_id: int
    data_id: int
    index: int  # block index within the data object
    size_mb: float
    replicas: List[int] = field(default_factory=list)  # store ids

    def on_store(self, store_id: int) -> bool:
        """True when the block has a replica on the store."""
        return store_id in self.replicas


class PlacementPolicy(abc.ABC):
    """Chooses replica stores for each new block."""

    @abc.abstractmethod
    def choose(
        self,
        cluster: Cluster,
        block: Block,
        replication: int,
        rng: np.random.Generator,
        used_mb: np.ndarray,
        capacity_mb: np.ndarray,
    ) -> List[int]:
        """Return ``replication`` distinct store ids for ``block``.

        ``used_mb`` and ``capacity_mb`` are per-store MB in use and
        ``Cap(S)``; ``HDFS.populate`` builds the capacity vector once.
        """


class RandomPlacement(PlacementPolicy):
    """Hadoop's default-ish policy: random distinct stores with capacity.

    (The real default pins the first replica to the writer's node; for
    pre-populated benchmark inputs random placement is what the paper's
    "shuffles the data blocks randomly within the cluster" baseline does.)
    """

    def choose(self, cluster, block, replication, rng, used_mb, capacity_mb):
        fits = np.where(used_mb + block.size_mb <= capacity_mb)[0]
        if len(fits) == 0:
            raise RuntimeError("no store has capacity for a new block replica")
        k = min(replication, len(fits))
        return list(rng.choice(fits, size=k, replace=False))


class CapacityAwarePlacement(PlacementPolicy):
    """Purlieus-style placement: data goes where compute lives.

    The paper's related work: "Purlieus places the data on the computation
    nodes that will likely have enough computation capacity to host jobs
    that will process the data in the future."  This policy weights each
    machine-co-located store by its machine's ECU share (remote stores get
    none), so a locality scheduler later finds the blocks already sitting
    next to proportional compute — the coupled data-and-VM placement idea
    without LiPS' cost awareness.
    """

    def choose(self, cluster, block, replication, rng, used_mb, capacity_mb):
        weights = np.zeros(cluster.num_stores)
        for s in cluster.stores:
            if s.colocated_machine is None:
                continue
            if used_mb[s.store_id] + block.size_mb > capacity_mb[s.store_id]:
                continue
            weights[s.store_id] = cluster.machines[s.colocated_machine].ecu
        if weights.sum() == 0:
            # no co-located capacity left: fall back to anything that fits
            return RandomPlacement().choose(
                cluster, block, replication, rng, used_mb, capacity_mb
            )
        chosen: List[int] = []
        w = weights.copy()
        for _ in range(min(replication, int((w > 0).sum()))):
            probs = w / w.sum()
            pick = int(rng.choice(len(probs), p=probs))
            chosen.append(pick)
            w[pick] = 0.0
        return chosen


class HDFS:
    """Block registry plus placement bookkeeping.

    ``populate`` splits data objects into blocks and places them; the
    scheduler-facing API answers "where are job *k*'s blocks" and "how much
    space does store *j* use".
    """

    def __init__(
        self,
        cluster: Cluster,
        replication: int = 1,
        policy: Optional[PlacementPolicy] = None,
        seed: int = 0,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.cluster = cluster
        self.replication = replication
        self.policy = policy or RandomPlacement()
        self.rng = np.random.default_rng(seed)
        self.blocks: List[Block] = []
        self.blocks_by_data: Dict[int, List[Block]] = {}
        self.used_mb = np.zeros(cluster.num_stores)

    def populate(self, data: Sequence[DataObject]) -> None:
        """Create and place all blocks for the given data objects."""
        capacity_mb = self.cluster.store_capacity_vector()
        for obj in data:
            if obj.data_id in self.blocks_by_data:
                raise ValueError(f"data object {obj.data_id} already populated")
            blocks: List[Block] = []
            remaining = obj.size_mb
            for idx in range(obj.num_blocks):
                size = min(obj.block_mb, remaining)
                remaining -= size
                block = Block(
                    block_id=len(self.blocks),
                    data_id=obj.data_id,
                    index=idx,
                    size_mb=size,
                )
                replicas = self.policy.choose(
                    self.cluster, block, self.replication, self.rng, self.used_mb, capacity_mb
                )
                if not replicas:
                    raise RuntimeError("placement policy returned no replicas")
                block.replicas = replicas
                for store in replicas:
                    self.used_mb[store] += size
                self.blocks.append(block)
                blocks.append(block)
            self.blocks_by_data[obj.data_id] = blocks

    # -- queries --------------------------------------------------------------
    def blocks_of(self, data_id: int) -> List[Block]:
        """Blocks of one data object (empty if not populated)."""
        return self.blocks_by_data.get(data_id, [])

    def stores_with(self, data_id: int) -> Set[int]:
        """All stores holding any block of the data object."""
        out: Set[int] = set()
        for b in self.blocks_of(data_id):
            out.update(b.replicas)
        return out

    def local_blocks(self, data_id: int, machine_id: int) -> List[Block]:
        """Blocks of ``data_id`` with a replica on ``machine_id``'s store."""
        store = self.cluster.store_for_machine(machine_id)
        if store is None:
            return []
        return [b for b in self.blocks_of(data_id) if b.on_store(store.store_id)]

    def move_block(self, block: Block, to_store: int) -> float:
        """Relocate a block's primary replica; returns MB moved (0 if no-op).

        Models LiPS' pre-execution data movement; replica set collapses to
        the target (the paper moves, not copies, for cost accounting).
        """
        if block.on_store(to_store):
            return 0.0
        for store in block.replicas:
            self.used_mb[store] -= block.size_mb
        block.replicas = [to_store]
        self.used_mb[to_store] += block.size_mb
        return block.size_mb

    def total_stored_mb(self) -> float:
        """Total MB occupied across all stores (replicas counted)."""
        return float(self.used_mb.sum())
