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
        self._ss = self._build_ss()
        self._ms = self._build_ms()
        self._bw = self._build_bandwidth()

    # -- matrix construction ------------------------------------------------
    def _pair_cost(self, zone_a: str, zone_b: str) -> float:
        if self.topology.cross_zone(zone_a, zone_b):
            return transfer_cost_per_mb(cross_zone=True)
        return self.intra_zone_cost_per_mb

    def _build_ss(self) -> np.ndarray:
        n = len(self.stores)
        ss = np.zeros((n, n))
        for i, si in enumerate(self.stores):
            for j, sj in enumerate(self.stores):
                if i == j:
                    continue
                ss[i, j] = self._pair_cost(si.zone, sj.zone)
        return ss

    def _build_ms(self) -> np.ndarray:
        ms = np.zeros((len(self.machines), len(self.stores)))
        for l, mach in enumerate(self.machines):
            for m, store in enumerate(self.stores):
                if store.colocated_machine == mach.machine_id:
                    ms[l, m] = 0.0  # node-local read
                else:
                    ms[l, m] = self._pair_cost(mach.zone, store.zone)
        return ms

    def _build_bandwidth(self) -> np.ndarray:
        bw = np.zeros((len(self.machines), len(self.stores)))
        for l, mach in enumerate(self.machines):
            for m, store in enumerate(self.stores):
                if store.colocated_machine == mach.machine_id:
                    bw[l, m] = LOCAL_READ_MB_PER_S
                else:
                    bw[l, m] = self.topology.bandwidth_mb_per_s(mach.zone, store.zone)
        return bw

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
