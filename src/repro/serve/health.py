"""The service health state machine and its watchdog.

The continuous scheduler must never fall behind real time: an epoch plan
that arrives after the epoch it plans is worthless.  The watchdog therefore
tracks two signals per epoch — *LP-solve lag* (profiled solve wall seconds,
plus any injected lag, against the epoch deadline budget) and *backlog*
(jobs queued for the next epoch against the shed watermarks) — and drives a
four-state machine:

``HEALTHY``
    LP scheduling, full admission.
``DEGRADED``
    The LP missed its deadline ``miss_threshold`` epochs in a row; epochs
    are scheduled by the greedy path (:func:`repro.resilience.degraded.
    greedy_epoch_solution`) which needs no solver at all.  Every
    ``probe_every``-th epoch still runs the LP as a probe; an on-time probe
    moves to ``RECOVERING``.
``SHEDDING``
    Backlog crossed ``shed_high`` — even greedy scheduling is not draining
    the queue, so admission rejects everything (deterministic hard shed,
    fully accounted) until backlog falls to ``shed_low`` (hysteresis).
``RECOVERING``
    LP scheduling again, but on probation: ``recover_after`` consecutive
    on-time epochs promote to ``HEALTHY``; one miss demotes straight back
    to ``DEGRADED``.

Every transition is a pure function of (state, miss, backlog), so a
recovered service replaying its journal reproduces the exact decision
sequence; transitions are journaled, traced (``service.transition`` events)
and counted (``service_transitions_total``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.obs.registry import Histogram, current_registry


class ServiceState(enum.Enum):
    """Operating mode of the scheduling service."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SHEDDING = "shedding"
    RECOVERING = "recovering"


@dataclass(frozen=True)
class HealthConfig:
    """Watchdog thresholds (all deterministic; no wall-clock reads)."""

    #: wall-clock budget for one epoch's LP solves; beyond it the epoch
    #: counts as a deadline miss
    epoch_deadline_s: float = 1.0
    #: consecutive misses before HEALTHY degrades
    miss_threshold: int = 2
    #: in DEGRADED, probe the LP every Nth epoch
    probe_every: int = 4
    #: consecutive on-time LP epochs before RECOVERING promotes
    recover_after: int = 3
    #: backlog (queued jobs) entering SHEDDING
    shed_high: int = 48
    #: backlog at which SHEDDING hands back to RECOVERING
    shed_low: int = 16

    def __post_init__(self) -> None:
        if self.epoch_deadline_s <= 0:
            raise ValueError("epoch_deadline_s must be positive")
        if self.miss_threshold < 1 or self.recover_after < 1 or self.probe_every < 1:
            raise ValueError("miss_threshold/recover_after/probe_every must be >= 1")
        if not 0 <= self.shed_low < self.shed_high:
            raise ValueError("need 0 <= shed_low < shed_high")


@dataclass(frozen=True)
class Transition:
    """One state change with its trigger, for auditing and tracing."""

    epoch: int
    src: ServiceState
    dst: ServiceState
    reason: str


@dataclass(frozen=True)
class SLOConfig:
    """Service-level objectives over a sliding window of epochs."""

    #: epochs the sliding window covers
    window_epochs: int = 128
    #: tolerated deadline-miss fraction of LP epochs inside the window;
    #: burn rate is measured against this budget
    miss_budget: float = 0.05
    #: solve-latency quantiles ``/healthz``, ``/statusz`` and ``repro top`` show
    latency_quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99)

    def __post_init__(self) -> None:
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        if not 0.0 < self.miss_budget <= 1.0:
            raise ValueError("miss_budget must be in (0, 1]")


class SLOTracker:
    """Sliding-window SLO accounting: miss budget + solve-latency quantiles.

    Fed one verdict per epoch from :meth:`HealthMonitor.observe_epoch`; the
    window holds the last ``window_epochs`` verdicts, so miss rate and
    budget burn describe *recent* behaviour, not the whole run — exactly
    what an operator deciding whether a DEGRADED transition is news needs.
    Lag observations land in a private bucketed histogram (the registry's
    :class:`~repro.obs.registry.Histogram`, unregistered) whose
    bucket-interpolated quantiles back the latency objectives.

    Entirely deterministic: no clocks, no randomness — the tracker state is
    a pure function of the observed epoch sequence.
    """

    def __init__(self, config: Optional[SLOConfig] = None, deadline_s: float = 1.0) -> None:
        self.config = config or SLOConfig()
        self.deadline_s = deadline_s
        #: (epoch, used_lp, missed) verdicts inside the window
        self._window: Deque[Tuple[int, bool, bool]] = deque(
            maxlen=self.config.window_epochs
        )
        self._lag = Histogram("slo_epoch_lag_seconds", "per-epoch LP lag (window-independent)")
        self.epochs_observed = 0

    def observe(self, epoch: int, used_lp: bool, missed: bool, lag_s: float = 0.0) -> None:
        """Fold one finished epoch's verdict into the window."""
        self._window.append((epoch, used_lp, missed and used_lp))
        self.epochs_observed += 1
        if used_lp:
            self._lag.observe(lag_s)

    # -- the budget ----------------------------------------------------------
    @property
    def window_size(self) -> int:
        """Epochs currently inside the window."""
        return len(self._window)

    @property
    def lp_epochs(self) -> int:
        """LP-scheduled epochs inside the window (greedy epochs cannot miss)."""
        return sum(1 for _, used_lp, _ in self._window if used_lp)

    @property
    def misses(self) -> int:
        """Deadline misses inside the window."""
        return sum(1 for _, _, missed in self._window if missed)

    @property
    def miss_rate(self) -> float:
        """Miss fraction of LP epochs in the window (0 when none ran)."""
        lp = self.lp_epochs
        return self.misses / lp if lp else 0.0

    @property
    def burn_rate(self) -> float:
        """Budget burn: 1.0 = missing exactly at budget, >1 = over budget."""
        return self.miss_rate / self.config.miss_budget

    @property
    def budget_remaining(self) -> float:
        """Unburned fraction of the miss budget (clamped to [0, 1])."""
        return max(0.0, min(1.0, 1.0 - self.burn_rate))

    def quantile(self, q: float) -> float:
        """Bucket-interpolated lag quantile over every observed LP epoch."""
        return self._lag.quantile(q)

    def to_dict(self) -> dict:
        """JSON view under ``slo`` in the service status (``/healthz``, ``repro top``)."""
        return {
            "window_epochs": self.config.window_epochs,
            "window_size": self.window_size,
            "epochs_observed": self.epochs_observed,
            "lp_epochs": self.lp_epochs,
            "misses": self.misses,
            "miss_rate": self.miss_rate,
            "miss_budget": self.config.miss_budget,
            "burn_rate": self.burn_rate,
            "budget_remaining": self.budget_remaining,
            "deadline_s": self.deadline_s,
            "lag_quantiles_s": {
                f"p{int(q * 100)}": self.quantile(q)
                for q in self.config.latency_quantiles
            },
            "lag_observations": self._lag.count(),
        }


@dataclass
class HealthMonitor:
    """Tracks service health across epochs; see the module docstring."""

    config: HealthConfig = field(default_factory=HealthConfig)
    state: ServiceState = ServiceState.HEALTHY
    consecutive_misses: int = 0
    consecutive_ok: int = 0
    #: epochs spent in the current state (drives DEGRADED probing)
    epochs_in_state: int = 0
    transitions: List[Transition] = field(default_factory=list)
    #: optional sliding-window SLO accounting fed by observe_epoch; not part
    #: of the snapshot schema (the window rebuilds after recovery)
    slo: Optional[SLOTracker] = None

    def plan_epoch(self) -> bool:
        """Decide whether the *next* epoch uses the LP (True) or greedy."""
        if self.state in (ServiceState.HEALTHY, ServiceState.RECOVERING):
            return True
        if self.state is ServiceState.DEGRADED:
            # periodic probe: the only way to observe the LP getting faster
            return (self.epochs_in_state + 1) % self.config.probe_every == 0
        return False  # SHEDDING: cheapest possible scheduling

    @property
    def shedding(self) -> bool:
        """True while admission must hard-shed."""
        return self.state is ServiceState.SHEDDING

    def observe_epoch(
        self, epoch: int, used_lp: bool, missed: bool, backlog: int,
        tracer=None, ts: float = 0.0, lag_s: float = 0.0,
    ) -> Optional[Transition]:
        """Fold one finished epoch into the machine; returns any transition.

        ``missed`` is meaningful only when ``used_lp`` (greedy epochs cannot
        miss — that is the point of degrading).  At most one transition
        happens per epoch; backlog pressure outranks lag recovery.
        ``lag_s`` is the epoch's LP lag, forwarded to the SLO tracker.
        """
        cfg = self.config
        if self.slo is not None:
            self.slo.observe(epoch, used_lp, missed, lag_s)
        self.epochs_in_state += 1
        if used_lp:
            if missed:
                self.consecutive_misses += 1
                self.consecutive_ok = 0
            else:
                self.consecutive_ok += 1
                self.consecutive_misses = 0

        dst: Optional[Tuple[ServiceState, str]] = None
        if self.state is not ServiceState.SHEDDING and backlog >= cfg.shed_high:
            dst = (ServiceState.SHEDDING, f"backlog {backlog} >= {cfg.shed_high}")
        elif self.state is ServiceState.SHEDDING:
            if backlog <= cfg.shed_low:
                dst = (ServiceState.RECOVERING, f"backlog {backlog} <= {cfg.shed_low}")
        elif self.state is ServiceState.HEALTHY:
            if self.consecutive_misses >= cfg.miss_threshold:
                dst = (
                    ServiceState.DEGRADED,
                    f"{self.consecutive_misses} consecutive deadline misses",
                )
        elif self.state is ServiceState.DEGRADED:
            if used_lp and not missed:
                dst = (ServiceState.RECOVERING, "probe solve met its deadline")
        elif self.state is ServiceState.RECOVERING:
            if used_lp and missed:
                dst = (ServiceState.DEGRADED, "probation miss")
            elif self.consecutive_ok >= cfg.recover_after:
                dst = (
                    ServiceState.HEALTHY,
                    f"{self.consecutive_ok} consecutive on-time epochs",
                )
        if dst is None:
            return None
        return self._transition(epoch, dst[0], dst[1], tracer=tracer, ts=ts)

    def _transition(
        self, epoch: int, dst: ServiceState, reason: str, tracer=None, ts: float = 0.0
    ) -> Transition:
        transition = Transition(epoch=epoch, src=self.state, dst=dst, reason=reason)
        self.transitions.append(transition)
        self.state = dst
        self.epochs_in_state = 0
        self.consecutive_misses = 0
        self.consecutive_ok = 0
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "service_transitions_total",
                help="health state-machine transitions by edge",
            ).inc(src=transition.src.value, dst=dst.value)
        if tracer is not None and tracer.enabled:
            tracer.event(
                "service", "transition", ts,
                epoch=epoch, src=transition.src.value, dst=dst.value, reason=reason,
            )
        return transition

    # -- snapshot round-trip -------------------------------------------------
    def to_dict(self) -> dict:
        """Snapshot form (transitions kept as counts; full list is in WAL)."""
        return {
            "state": self.state.value,
            "consecutive_misses": self.consecutive_misses,
            "consecutive_ok": self.consecutive_ok,
            "epochs_in_state": self.epochs_in_state,
            "num_transitions": len(self.transitions),
        }

    @classmethod
    def from_dict(cls, payload: dict, config: HealthConfig) -> "HealthMonitor":
        """Rebuild monitor state from a snapshot."""
        monitor = cls(config=config, state=ServiceState(payload["state"]))
        monitor.consecutive_misses = int(payload["consecutive_misses"])
        monitor.consecutive_ok = int(payload["consecutive_ok"])
        monitor.epochs_in_state = int(payload["epochs_in_state"])
        return monitor
