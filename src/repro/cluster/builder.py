"""Cluster assembly: the ``Cluster`` aggregate and builders for the paper's
testbeds.

A :class:`Cluster` bundles machines, stores, the topology and the derived
:class:`~repro.cluster.network.NetworkModel`.  In the default (HDFS-like)
layout every machine hosts a co-located data store; remote stores (S3-like)
can be added on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.ec2 import InstanceType, ec2_instance
from repro.cluster.machine import Machine
from repro.cluster.network import NetworkModel
from repro.cluster.storage import DataStore
from repro.cluster.topology import Topology, paper_topology
from repro.util import round_half_up


@dataclass
class Cluster:
    """A fully-assembled cluster: ``M``, ``S``, topology and matrices."""

    machines: List[Machine]
    stores: List[DataStore]
    topology: Topology
    network: NetworkModel
    #: machine id -> its first co-located store (see store_for_machine)
    _store_of_machine: Dict[int, DataStore] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for s in self.stores:
            if s.colocated_machine is not None:
                self._store_of_machine.setdefault(s.colocated_machine, s)

    @property
    def num_machines(self) -> int:
        """Number of computation nodes."""
        return len(self.machines)

    @property
    def num_stores(self) -> int:
        """Number of data stores."""
        return len(self.stores)

    def store_for_machine(self, machine_id: int) -> Optional[DataStore]:
        """The co-located store of a machine, if any."""
        return self._store_of_machine.get(machine_id)

    def machines_by_zone(self) -> Dict[str, List[Machine]]:
        """Group machines by availability zone."""
        out: Dict[str, List[Machine]] = {}
        for m in self.machines:
            out.setdefault(m.zone, []).append(m)
        return out

    def cpu_cost_vector(self) -> np.ndarray:
        """Per-machine $/(equivalent-CPU-second) — ``CPU_Cost(M)``."""
        return np.array([m.cpu_cost for m in self.machines])

    def throughput_vector(self) -> np.ndarray:
        """Per-machine ECU throughput — ``TP(M)``."""
        return np.array([m.ecu for m in self.machines])

    def uptime_vector(self) -> np.ndarray:
        """Per-machine uptime seconds (offline capacity window)."""
        return np.array([m.uptime for m in self.machines])

    def store_capacity_vector(self) -> np.ndarray:
        """Per-store capacity in MB — ``Cap(S)``."""
        return np.array([s.capacity_mb for s in self.stores])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster({self.num_machines} machines, {self.num_stores} stores, "
            f"{len(self.topology.zones)} zones)"
        )


class ClusterBuilder:
    """Incremental cluster construction.

    Example
    -------
    >>> b = ClusterBuilder(topology=paper_topology())
    >>> _ = b.add_ec2_nodes("m1.medium", count=4, zone="us-east-a")
    >>> cluster = b.build()
    >>> cluster.num_machines
    4
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        default_uptime: float = 3600.0,
        price_point: float = 0.5,
        store_capacity_mb: Optional[float] = None,
    ) -> None:
        self.topology = topology or Topology.of(["default"])
        self.default_uptime = default_uptime
        self.price_point = price_point
        self.store_capacity_mb = store_capacity_mb
        self._machines: List[Machine] = []
        self._stores: List[DataStore] = []
        self._attach_stores: List[bool] = []

    # -- machines ----------------------------------------------------------
    def add_machine(
        self,
        name: str,
        ecu: float,
        cpu_cost: float,
        zone: str = "default",
        map_slots: int = 2,
        uptime: Optional[float] = None,
        memory_gb: float = 1.7,
        instance_type: str = "custom",
        with_store: bool = True,
        store_capacity_mb: Optional[float] = None,
    ) -> Machine:
        """Add one machine, by default with a co-located data store."""
        machine = Machine(
            machine_id=len(self._machines),
            name=name,
            ecu=ecu,
            cpu_cost=cpu_cost,
            zone=zone,
            map_slots=map_slots,
            uptime=uptime if uptime is not None else self.default_uptime,
            memory_gb=memory_gb,
            instance_type=instance_type,
        )
        self._machines.append(machine)
        if with_store:
            capacity = (
                store_capacity_mb
                if store_capacity_mb is not None
                else (self.store_capacity_mb if self.store_capacity_mb is not None else 160.0 * 1024)
            )
            self._stores.append(
                DataStore(
                    store_id=len(self._stores),
                    name=f"dn-{name}",
                    capacity_mb=capacity,
                    zone=zone,
                    colocated_machine=machine.machine_id,
                )
            )
        return machine

    def add_ec2_nodes(
        self,
        instance_type: str,
        count: int,
        zone: str,
        uptime: Optional[float] = None,
        price_point: Optional[float] = None,
    ) -> List[Machine]:
        """Add ``count`` nodes of an EC2 catalog type (Table III pricing)."""
        it: InstanceType = ec2_instance(instance_type)
        point = price_point if price_point is not None else self.price_point
        added = []
        for _ in range(count):
            idx = len(self._machines)
            added.append(
                self.add_machine(
                    name=f"{it.name}-{zone}-{idx:03d}",
                    ecu=it.ecu,
                    cpu_cost=it.cpu_cost_per_ecu_second(point),
                    zone=zone,
                    map_slots=max(1, it.cpus * 2),
                    uptime=uptime,
                    memory_gb=it.memory_gb,
                    instance_type=it.name,
                    store_capacity_mb=it.storage_gb * 1024,
                )
            )
        return added

    def add_remote_store(self, name: str, capacity_mb: float, zone: str) -> DataStore:
        """Add a stand-alone (S3-like) data store."""
        store = DataStore(
            store_id=len(self._stores),
            name=name,
            capacity_mb=capacity_mb,
            zone=zone,
            colocated_machine=None,
        )
        self._stores.append(store)
        return store

    # -- build --------------------------------------------------------------
    def build(self, intra_zone_cost_per_mb: float = 0.0) -> Cluster:
        """Assemble the cluster and derive its network matrices."""
        if not self._machines:
            raise ValueError("cluster needs at least one machine")
        if not self._stores:
            raise ValueError("cluster needs at least one data store")
        network = NetworkModel(
            machines=self._machines,
            stores=self._stores,
            topology=self.topology,
            intra_zone_cost_per_mb=intra_zone_cost_per_mb,
        )
        return Cluster(
            machines=list(self._machines),
            stores=list(self._stores),
            topology=self.topology,
            network=network,
        )


def build_paper_testbed(
    total_nodes: int = 20,
    c1_medium_fraction: float = 0.0,
    m1_small_fraction: float = 0.0,
    uptime: float = 3600.0,
    price_point: Optional[float] = None,
    seed: int = 0,
) -> Cluster:
    """Build an EC2 testbed in the paper's style.

    ``c1_medium_fraction`` of the nodes are c1.medium (cheap cycles),
    ``m1_small_fraction`` are m1.small, and the rest m1.medium.  Nodes are
    spread round-robin across the three availability zones, matching the
    paper's 20-node (Fig. 6) and 100-node (Fig. 9) setups.

    ``price_point`` pins every node to one point of its Table III price
    range; the default (None) draws a per-node point uniformly at random,
    reflecting the paper's premise that "CPU costs vary wildly between
    different nodes and times" — even a single-type cluster then has a
    price spread for LiPS to exploit.
    """
    if total_nodes < 1:
        raise ValueError("total_nodes must be >= 1")
    if c1_medium_fraction + m1_small_fraction > 1.0 + 1e-9:
        raise ValueError("instance-type fractions exceed 1")
    rng = np.random.default_rng(seed)
    n_c1 = round_half_up(total_nodes * c1_medium_fraction)
    n_small = round_half_up(total_nodes * m1_small_fraction)
    n_medium = total_nodes - n_c1 - n_small

    builder = ClusterBuilder(topology=paper_topology(), default_uptime=uptime)
    zones = builder.topology.zone_names()
    kinds = ["c1.medium"] * n_c1 + ["m1.small"] * n_small + ["m1.medium"] * n_medium
    rng.shuffle(kinds)
    # ``uniform()`` is ``0 + 1 * random()``: one batched draw is the same stream
    points = [price_point] * total_nodes if price_point is not None else rng.random(total_nodes)
    for i, (kind, point) in enumerate(zip(kinds, points)):
        builder.add_ec2_nodes(kind, count=1, zone=zones[i % len(zones)], price_point=float(point))
    return builder.build()
