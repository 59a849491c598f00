"""Transfer-cost and bandwidth matrices (``MS``, ``SS``, ``B`` of Table II).

``NetworkModel`` derives, from a topology plus machine/store placements, the
three matrices the LP models consume:

* ``ss_cost[i, j]`` — dollars per MB moved from store *i* to store *j*;
* ``ms_cost[l, m]`` — dollars per MB moved between machine *l* and store *m*
  (the runtime read path);
* ``bandwidth[l, m]`` — MB/s between machine *l* and store *m* (used by
  online constraint (21) and by the Hadoop simulator's transfer times).

Following the paper's EC2 setting, intra-zone transfer is free and
cross-zone transfer costs $0.01/GB; a small local-read discount makes
node-local reads strictly preferable, mirroring HDFS short-circuit reads.

Prices and bandwidths depend only on the two zones and on co-location, so
each matrix is gathered from a zones x zones table: ``_pair_cost`` and
``Topology.bandwidth_mb_per_s`` run once per zone pair and stay the only
definition of a price or a bandwidth (overrides and
``intra_zone_cost_per_mb`` apply through them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.ec2 import transfer_cost_per_mb
from repro.cluster.machine import Machine
from repro.cluster.storage import DataStore
from repro.cluster.topology import Topology

#: MB/s assumed for a node-local (same host) read; effectively "disk speed".
LOCAL_READ_MB_PER_S: float = 400.0


@dataclass
class NetworkModel:
    """Matrices derived from the cluster layout.

    Parameters
    ----------
    machines, stores, topology:
        The cluster pieces.
    intra_zone_cost_per_mb:
        Optional nonzero price for intra-zone traffic (the paper's EC2 price
        is zero; data-center-operator cost models may set this).
    """

    machines: Sequence[Machine]
    stores: Sequence[DataStore]
    topology: Topology
    intra_zone_cost_per_mb: float = 0.0

    def __post_init__(self) -> None:
        for m in self.machines:
            if m.zone not in self.topology.zones:
                raise ValueError(f"machine {m.name!r} in unknown zone {m.zone!r}")
        for s in self.stores:
            if s.zone not in self.topology.zones:
                raise ValueError(f"store {s.name!r} in unknown zone {s.zone!r}")
        self._build()

    # -- matrix construction ------------------------------------------------
    def _pair_cost(self, zone_a: str, zone_b: str) -> float:
        if self.topology.cross_zone(zone_a, zone_b):
            return transfer_cost_per_mb(cross_zone=True)
        return self.intra_zone_cost_per_mb

    def _build(self) -> None:
        """Gather ``SS``/``MS``/``B`` from zones x zones tables (see module doc)."""
        names = list(self.topology.zones)
        index, z = {name: k for k, name in enumerate(names)}, len(names)
        pair_cost, pair_bw = self._pair_cost, self.topology.bandwidth_mb_per_s
        cost = np.array([[pair_cost(a, b) for b in names] for a in names], float).reshape(z, z)
        bw = np.array([[pair_bw(a, b) for b in names] for a in names], float).reshape(z, z)
        mz = np.array([index[m.zone] for m in self.machines], dtype=np.intp)[:, None]
        sz = np.array([index[s.zone] for s in self.stores], dtype=np.intp)
        # co-located cells: store.colocated_machine == machine.machine_id
        row = {mach.machine_id: l for l, mach in enumerate(self.machines)}
        hosts = [s.colocated_machine for s in self.stores]
        cells = [(row[h], m) for m, h in enumerate(hosts) if h in row]
        local = tuple(np.array(cells, dtype=np.intp).reshape(-1, 2).T)
        self._ss = cost[sz[:, None], sz]
        np.fill_diagonal(self._ss, 0.0)
        self._ms = cost[mz, sz]
        self._ms[local] = 0.0  # node-local read
        self._bw = bw[mz, sz]
        self._bw[local] = LOCAL_READ_MB_PER_S

    # -- accessors ----------------------------------------------------------
    @property
    def ss_cost(self) -> np.ndarray:
        """(n_stores, n_stores) $/MB store-to-store transfer cost."""
        return self._ss

    @property
    def ms_cost(self) -> np.ndarray:
        """(n_machines, n_stores) $/MB machine↔store transfer cost."""
        return self._ms

    @property
    def bandwidth(self) -> np.ndarray:
        """(n_machines, n_stores) MB/s machine↔store bandwidth."""
        return self._bw

    def store_bandwidth(self, i: int, j: int) -> float:
        """MB/s between two stores (for re-placement transfer times)."""
        if i == j:
            return LOCAL_READ_MB_PER_S
        return self.topology.bandwidth_mb_per_s(self.stores[i].zone, self.stores[j].zone)
