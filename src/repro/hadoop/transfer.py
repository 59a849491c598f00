"""Network transfer timing for the simulator.

Transfer *cost* (dollars) comes from the cluster's ``ms_cost``/``ss_cost``
matrices; this module supplies transfer *time*.  Reads are timed by the
machine↔store bandwidth matrix with a simple NIC-contention approximation:
the effective bandwidth of a new flow is the link bandwidth divided by the
number of flows concurrently active on the reading machine's NIC.  The share
is fixed at flow start (no in-flight re-balancing) — a standard DES
simplification that keeps runs deterministic and is accurate when flows are
short relative to the contention horizon (64 MB blocks are).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


from repro.cluster.builder import Cluster
from repro.obs.trace import NULL_TRACER
from repro.units import SECONDS, returns


@dataclass
class NetworkSimulator:
    """Tracks active flows per machine NIC and times transfers.

    When a tracer collecting the (default-excluded) ``netflow`` category is
    installed, every remote-read flow start/finish is recorded with the
    NIC's concurrent flow count — the contention signal behind slow reads.
    Flow events carry no simulation time of their own (the caller owns the
    clock), so ``now`` is threaded in by the simulator.
    """

    cluster: Cluster
    #: extra seconds added per remote read (connection setup, RTT-ish)
    per_flow_latency_s: float = 0.05
    #: trace emitter for netflow records (the simulator installs its own)
    tracer: object = NULL_TRACER
    _active_flows: Dict[int, int] = field(default_factory=dict)
    #: store-to-store move bandwidth per (source, destination) store pair,
    #: filled on first use of each pair
    _move_bw: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @returns(SECONDS)
    def read_time(self, machine_id: int, store_id: int, mb: float) -> float:
        """Seconds to read ``mb`` from ``store_id`` into ``machine_id``.

        Local reads use the local-disk rate and never contend.
        """
        if mb < 0:
            raise ValueError("mb must be >= 0")
        if mb == 0:
            return 0.0
        bw = self.cluster.network.bandwidth[machine_id, store_id]
        store = self.cluster.stores[store_id]
        if store.colocated_machine == machine_id:
            return mb / bw
        flows = self._active_flows.get(machine_id, 0) + 1
        return self.per_flow_latency_s + mb / (bw / flows)

    @returns(SECONDS)
    def store_move_time(self, src_store: int, dst_store: int, mb: float) -> float:
        """Seconds to move ``mb`` between stores (placement transfers)."""
        if mb <= 0:
            return 0.0
        pair = (src_store, dst_store)
        bw = self._move_bw.get(pair)
        if bw is None:
            bw = self._move_bw[pair] = self.cluster.network.store_bandwidth(*pair)
        return mb / bw

    def flow_started(self, machine_id: int, now: float = 0.0) -> None:
        """Count a new remote read on the machine's NIC."""
        flows = self._active_flows.get(machine_id, 0) + 1
        self._active_flows[machine_id] = flows
        if self.tracer.enabled and self.tracer.wants("netflow"):
            self.tracer.event(
                "netflow", "start", now, machine=machine_id, active=flows
            )

    def flow_finished(self, machine_id: int, now: float = 0.0) -> None:
        """Release a remote read from the machine's NIC."""
        n = self._active_flows.get(machine_id, 0)
        if n <= 1:
            self._active_flows.pop(machine_id, None)
        else:
            self._active_flows[machine_id] = n - 1
        if self.tracer.enabled and self.tracer.wants("netflow"):
            self.tracer.event(
                "netflow", "finish", now, machine=machine_id, active=max(0, n - 1)
            )

    def active_flows(self, machine_id: int) -> int:
        """Concurrent remote reads on one machine."""
        return self._active_flows.get(machine_id, 0)

    def read_tier(self, machine_id: int, store_id: int) -> str:
        """Locality tier of a machine←store read: local, zone or remote.

        Mirrors the bucketing the simulator uses for the locality-MB
        metrics, so trace records and SimMetrics always agree.
        """
        store = self.cluster.stores[store_id]
        if store.colocated_machine == machine_id:
            return "local"
        if store.zone == self.cluster.machines[machine_id].zone:
            return "zone"
        return "remote"
