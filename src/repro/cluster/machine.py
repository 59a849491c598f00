"""Computation nodes (the ``M`` set; Hadoop TaskTrackers).

Throughput is expressed in EC2 Compute Units (ECU) following the paper:
"one EC2 Compute Unit provides the equivalent CPU capacity of a 1.0-1.2 GHz
2007 Opteron" (Table III).  A job that needs ``c`` CPU-seconds per block
finishes a block in ``c / ecu`` wall seconds on an ``ecu``-unit machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.units import CPU_SECONDS, DOLLARS, SECONDS, returns


@dataclass
class Machine:
    """A computation node (TaskTracker host).

    Attributes
    ----------
    machine_id:
        Dense index into the cluster's machine list.
    name:
        Human-readable identifier (e.g. ``"m1.medium-us-east-a-07"``).
    ecu:
        Aggregate compute throughput in EC2 Compute Units — ``TP(M)`` of the
        paper, measured in equivalent-CPU-seconds per wall second.
    cpu_cost:
        Dollar cost of one equivalent-CPU-second on this node
        (``CPU_Cost(M)``).
    zone:
        Availability-zone name; determines bandwidth and transfer prices.
    map_slots:
        Concurrent map-task slots exposed to the Hadoop simulator.
    uptime:
        Seconds of availability considered by the *offline* models
        (``uptime(M)``); the online model replaces this with the epoch.
    memory_gb:
        Informational (used by job resource-requirement filters).
    """

    machine_id: int
    name: str
    ecu: float
    cpu_cost: float
    zone: str = "default"
    map_slots: int = 2
    uptime: float = 3600.0
    memory_gb: float = 1.7
    instance_type: str = "custom"
    tags: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ecu <= 0:
            raise ValueError(f"machine {self.name!r}: ecu must be positive")
        if self.cpu_cost < 0:
            raise ValueError(f"machine {self.name!r}: cpu_cost must be >= 0")
        if self.map_slots < 0:
            raise ValueError(f"machine {self.name!r}: slots must be >= 0")

    @property
    @returns(CPU_SECONDS)
    def capacity(self) -> float:
        """Total equivalent-CPU-seconds available over the uptime window."""
        return self.ecu * self.uptime

    @property
    def slot_ecu(self) -> float:
        """ECU throughput of one map slot (slots share the node's CPUs)."""
        return self.ecu / max(1, self.map_slots)

    @returns(DOLLARS)
    def execution_cost(self, cpu_seconds: float) -> float:
        """Dollar cost of running ``cpu_seconds`` equivalent-CPU-seconds here."""
        if cpu_seconds < 0:
            raise ValueError("cpu_seconds must be >= 0")
        return cpu_seconds * self.cpu_cost

    @returns(SECONDS)
    def wall_time(self, cpu_seconds: float) -> float:
        """Wall-clock seconds to burn ``cpu_seconds`` at this node's speed."""
        return cpu_seconds / self.ecu

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.name!r}, ecu={self.ecu}, "
            f"cost={self.cpu_cost:.6f}$/cpu-s, zone={self.zone!r})"
        )
