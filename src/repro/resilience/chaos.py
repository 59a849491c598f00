"""Chaos injection: stragglers, partitions, read errors and solver faults.

Extends :mod:`repro.hadoop.failures` (machine outages) with the remaining
fault classes a production MapReduce deployment sees:

* **stragglers** — a machine's service rate drops for a window (every
  attempt launched on it during the window runs ``slowdown`` times longer);
* **inter-AZ network partitions** — cross-zone reads between two zones fail
  while the partition is up (the scheduler does not know; the read is
  launched, burns its transfer time, fails and is re-queued with a retry
  backoff — this is what exercises the failure→re-offer path);
* **store read errors** — all reads from one store fail during a window
  regardless of zones (a sick DataNode);
* **solver faults** — :class:`FaultInjectingBackend` wraps an LP backend
  and fails the solves its schedule picks (every solve, the first N, or
  epoch-clock windows), which is how soaks force the
  :class:`~repro.resilience.ResilientSolver` fallback chain and the
  degraded epoch path to actually run.

All randomness flows through an explicit :class:`numpy.random.Generator`
(:func:`random_chaos_plan` takes one; there is no module-level RNG), so a
whole chaos soak is reproducible from a single seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hadoop.failures import FailurePlan, random_failure_plan
from repro.lp.result import LPResult, LPStatus
from repro.obs import lpprof
from repro.obs.registry import current_registry

#: a ``[start, end)`` span of simulated seconds
Window = Tuple[float, float]


def in_windows(windows: Sequence[Window], now: float) -> bool:
    """True when some ``[start, end)`` window covers ``now``."""
    return any(start <= now < end for start, end in windows)


@dataclass(frozen=True)
class StragglerEvent:
    """One slow-node window: attempts launched in it run ``slowdown`` x longer."""

    machine_id: int
    start: float
    end: float
    slowdown: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("straggler window must satisfy 0 <= start < end")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (it stretches wall time)")

    def active(self, now: float) -> bool:
        """True while the window covers ``now``."""
        return self.start <= now < self.end


@dataclass(frozen=True)
class PartitionEvent:
    """An inter-AZ partition: reads crossing (zone_a, zone_b) fail."""

    zone_a: str
    zone_b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.zone_a == self.zone_b:
            raise ValueError("a partition needs two distinct zones")
        if self.start < 0 or self.end <= self.start:
            raise ValueError("partition window must satisfy 0 <= start < end")

    def severs(self, zone_x: str, zone_y: str, now: float) -> bool:
        """True when a (machine-zone, store-zone) read crosses this partition."""
        if not (self.start <= now < self.end):
            return False
        return {zone_x, zone_y} == {self.zone_a, self.zone_b}


@dataclass(frozen=True)
class ReadFaultEvent:
    """A window in which every read from one store fails."""

    store_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("read-fault window must satisfy 0 <= start < end")

    def active(self, now: float) -> bool:
        """True while the window covers ``now``."""
        return self.start <= now < self.end


@dataclass
class ChaosPlan:
    """Everything to inject into one run, seeded and deterministic.

    ``failures`` reuses :class:`~repro.hadoop.failures.FailurePlan` outage
    semantics; the other lists are consulted by the simulator at launch
    time.  ``retry_backoff_s`` is the earliest-start penalty a task gets
    after a chaos-failed read, guaranteeing forward progress once the fault
    window closes instead of a hot retry loop inside it.

    ``backoff_jitter`` spreads retries so simultaneous victims of one fault
    window do not re-offer in lockstep: each backoff is stretched by up to
    that fraction, drawn from a private ``numpy.Generator`` seeded with
    ``backoff_seed`` — never from ambient RNG — so the whole retry schedule
    is a pure function of the plan (the FLOW001 determinism pass stays
    clean and a soak replays byte-identically from its seed).
    """

    failures: FailurePlan = field(default_factory=FailurePlan)
    stragglers: List[StragglerEvent] = field(default_factory=list)
    partitions: List[PartitionEvent] = field(default_factory=list)
    read_faults: List[ReadFaultEvent] = field(default_factory=list)
    retry_backoff_s: float = 30.0
    #: max extra backoff as a fraction of ``retry_backoff_s`` (0 = fixed)
    backoff_jitter: float = 0.0
    #: seed of the private jitter Generator (ignored when jitter is 0)
    backoff_seed: int = 0

    def next_backoff(self) -> float:
        """The next retry backoff: base plus seeded jitter, in seconds.

        Draws advance a plan-private Generator, so two runs injecting the
        same fault sequence see identical backoffs.
        """
        if self.backoff_jitter <= 0.0:
            return self.retry_backoff_s
        rng = self.__dict__.get("_backoff_rng")
        if rng is None:
            rng = self.__dict__["_backoff_rng"] = np.random.default_rng(self.backoff_seed)
        return self.retry_backoff_s * (1.0 + self.backoff_jitter * float(rng.random()))

    def validate(self, cluster) -> None:
        """Check every referenced machine/store/zone exists."""
        self.failures.validate(cluster.num_machines)
        zones = set(cluster.topology.zone_names())
        for s in self.stragglers:
            if not 0 <= s.machine_id < cluster.num_machines:
                raise ValueError(f"straggler references unknown machine {s.machine_id}")
        for p in self.partitions:
            if p.zone_a not in zones or p.zone_b not in zones:
                raise ValueError(f"partition references unknown zone ({p.zone_a}, {p.zone_b})")
        for r in self.read_faults:
            if not 0 <= r.store_id < cluster.num_stores:
                raise ValueError(f"read fault references unknown store {r.store_id}")

    # -- queries the simulator makes ---------------------------------------
    def compute_factor(self, machine_id: int, now: float) -> float:
        """Wall-time stretch for an attempt launching on ``machine_id`` now."""
        factor = 1.0
        for s in self.stragglers:
            if s.machine_id == machine_id and s.active(now):
                factor *= s.slowdown
        return factor

    def read_blocked(
        self, machine_zone: str, store_zone: str, store_id: int, now: float
    ) -> bool:
        """True when a read (machine zone -> store) fails right now."""
        for r in self.read_faults:
            if r.store_id == store_id and r.active(now):
                return True
        for p in self.partitions:
            if p.severs(machine_zone, store_zone, now):
                return True
        return False

    def __len__(self) -> int:
        return (
            len(self.failures)
            + len(self.stragglers)
            + len(self.partitions)
            + len(self.read_faults)
        )


def random_chaos_plan(
    cluster,
    horizon_s: float,
    rng: np.random.Generator,
    mean_time_to_failure_s: float = 0.0,
    mean_repair_s: float = 600.0,
    straggler_prob: float = 0.3,
    straggler_slowdown: float = 4.0,
    partition_prob: float = 0.5,
    partition_mean_s: float = 300.0,
    read_fault_prob: float = 0.2,
    read_fault_mean_s: float = 120.0,
    backoff_jitter: float = 0.25,
) -> ChaosPlan:
    """Draw a seeded chaos plan for ``cluster`` over ``horizon_s`` seconds.

    All draws come from the caller's ``rng`` — pass
    ``numpy.random.default_rng(seed)`` and the entire plan (machine
    outages included, retry-backoff jitter schedule included) is a pure
    function of that seed.  Set ``mean_time_to_failure_s`` to 0 to skip
    machine outages.
    """
    if horizon_s <= 0:
        raise ValueError("horizon_s must be positive")
    plan = ChaosPlan(
        backoff_jitter=backoff_jitter,
        backoff_seed=int(rng.integers(0, 2**31)),
    )
    if mean_time_to_failure_s > 0:
        plan.failures = random_failure_plan(
            cluster.num_machines,
            horizon_s,
            mean_time_to_failure_s,
            mean_repair_s=mean_repair_s,
            rng=rng,
        )
    for m in range(cluster.num_machines):
        if rng.random() < straggler_prob:
            start = float(rng.uniform(0.0, horizon_s * 0.8))
            duration = float(rng.exponential(horizon_s * 0.1)) + 1.0
            plan.stragglers.append(
                StragglerEvent(
                    machine_id=m,
                    start=start,
                    end=start + duration,
                    slowdown=1.0 + float(rng.uniform(0.5, 1.0)) * (straggler_slowdown - 1.0),
                )
            )
    zones = list(cluster.topology.zone_names())
    if len(zones) >= 2 and rng.random() < partition_prob:
        pair = rng.choice(len(zones), size=2, replace=False)
        start = float(rng.uniform(0.0, horizon_s * 0.6))
        plan.partitions.append(
            PartitionEvent(
                zone_a=zones[int(pair[0])],
                zone_b=zones[int(pair[1])],
                start=start,
                end=start + float(rng.exponential(partition_mean_s)) + 1.0,
            )
        )
    for s in range(cluster.num_stores):
        if rng.random() < read_fault_prob:
            start = float(rng.uniform(0.0, horizon_s * 0.8))
            plan.read_faults.append(
                ReadFaultEvent(
                    store_id=s,
                    start=start,
                    end=start + float(rng.exponential(read_fault_mean_s)) + 1.0,
                )
            )
    return plan


class FaultInjectingBackend:
    """Wraps an LP backend and fails the solves its fault schedule picks.

    The schedule is one of:

    * every solve (the default) — the "primary backend is down" scenario
      the chaos soak forces;
    * the first ``fail_first`` solves, then pass through;
    * ``fail_windows`` over the epoch clock: a solve fails while a
      ``(start, end)`` window covers its epoch's start time, read from the
      ``lpprof.scope(epoch=i)`` the epoch controller opens around an
      epoch's solves (start = ``i * epoch_length``); solves outside any
      epoch scope pass through.  Because this schedule is a function of
      the epoch, not of the solve count, a crashed service and its WAL
      replay inject identical faults.

    A failed solve returns a ``NUMERICAL`` result, or raises
    ``RuntimeError`` with ``raise_exception`` — which exercises the
    :class:`~repro.resilience.ResilientSolver`'s exception classification.
    """

    def __init__(
        self,
        inner,
        fail_first: Optional[int] = None,
        fail_windows: Optional[Sequence[Window]] = None,
        epoch_length: float = 0.0,
        raise_exception: bool = False,
    ) -> None:
        self.inner = inner
        self.fail_first = fail_first
        self.fail_windows = None if fail_windows is None else list(fail_windows)
        self.epoch_length = epoch_length
        self.raise_exception = raise_exception
        self.solves_seen = 0
        self.faults_injected = 0
        inner_name = getattr(inner, "name", type(inner).__name__)
        windowed = self.fail_windows is not None
        self._kind = "solver-window" if windowed else "solver"
        self.name = f"windowed-chaos({inner_name})" if windowed else f"chaos({inner_name})"

    def _should_fail(self) -> bool:
        if self.fail_windows is not None:
            epoch = lpprof.current_scope().get("epoch")
            return epoch is not None and in_windows(
                self.fail_windows, epoch * self.epoch_length
            )
        return self.fail_first is None or self.solves_seen <= self.fail_first

    def solve_assembled(self, asm) -> LPResult:
        """Fail if the schedule picks this solve; else delegate."""
        self.solves_seen += 1
        if not self._should_fail():
            return self.inner.solve_assembled(asm)
        self.faults_injected += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "chaos_faults_injected_total", help="chaos faults injected by kind"
            ).inc(kind=self._kind)
        if self.raise_exception:
            raise RuntimeError("injected solver fault")
        return LPResult(
            status=LPStatus.NUMERICAL,
            objective=float("nan"),
            x=None,
            backend=self.name,
            message="injected solver fault",
        )
