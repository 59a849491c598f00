"""Adaptive epoch tuning for LiPS.

The paper leaves the epoch knob to the user: "In practice the epoch length
can be either fixed in advance, or adaptively changed as the performance
and cost preferences are changed by users."  This scheduler implements the
adaptive variant as a makespan-budget controller:

* the user states a ``target_makespan`` for the run;
* before each epoch solve, the scheduler projects the finish time of the
  remaining work at the current degree of parallelism (remaining CPU over
  the capacity an epoch engages);
* running late ⇒ shrink the epoch (shorter epochs force the LP to spread
  work: faster, pricier); comfortably early ⇒ grow it (cheaper, slower);

so the cost/performance dial turns itself toward the budget instead of
being fixed up front.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.lips import LipsScheduler


class AdaptiveLipsScheduler(LipsScheduler):
    """LiPS with a self-tuning epoch.

    Parameters
    ----------
    target_makespan:
        Seconds the whole run should fit in.
    min_epoch / max_epoch:
        Clamp for the adaptation (the LP degenerates both at sub-heartbeat
        epochs and at epochs longer than the run).
    initial_epoch:
        Starting point; defaults to the geometric middle of the clamp.
    adjust_factor:
        Multiplicative step per adaptation (2.0 = halve/double).
    slack:
        Fractional headroom demanded before growing the epoch (0.2 = only
        lengthen when projected finish is 20% under budget).
    """

    def __init__(
        self,
        target_makespan: float,
        min_epoch: float = 60.0,
        max_epoch: float = 7200.0,
        initial_epoch: Optional[float] = None,
        adjust_factor: float = 2.0,
        slack: float = 0.2,
        backend: Optional[object] = None,
    ) -> None:
        if target_makespan <= 0:
            raise ValueError("target_makespan must be positive")
        if not 0 < min_epoch <= max_epoch:
            raise ValueError("need 0 < min_epoch <= max_epoch")
        if adjust_factor <= 1.0:
            raise ValueError("adjust_factor must exceed 1")
        start = initial_epoch if initial_epoch is not None else (min_epoch * max_epoch) ** 0.5
        super().__init__(epoch_length=start, backend=backend)
        self.target_makespan = target_makespan
        self.min_epoch = min_epoch
        self.max_epoch = max_epoch
        self.adjust_factor = adjust_factor
        self.slack = slack
        self.epoch_history: list = []

    # -- projection ---------------------------------------------------------
    def _remaining_cpu(self) -> float:
        total = 0.0
        for job in self.sim.jobtracker.queue:
            total += sum(t.cpu_seconds for t in job.pending)
            for attempts in job.running.values():
                if attempts:
                    total += attempts[0].task.cpu_seconds
        return total

    def _projected_finish(self, now: float) -> float:
        """Crude forecast: remaining CPU at full-cluster speed from now."""
        speed = sum(
            t.machine.ecu for t in self.sim.trackers if t.alive
        )
        if speed <= 0:
            return float("inf")
        return now + self._remaining_cpu() / speed

    # -- adaptation ------------------------------------------------------------
    def on_epoch(self, now: float) -> None:
        projected = self._projected_finish(now)
        budget = self.target_makespan
        if projected > budget:
            new = max(self.min_epoch, self.epoch_length / self.adjust_factor)
        elif projected < budget * (1.0 - self.slack):
            new = min(self.max_epoch, self.epoch_length * self.adjust_factor)
        else:
            new = self.epoch_length
        self.epoch_length = new
        self.epoch_history.append((now, new, projected))
        super().on_epoch(now)

    @property
    def name(self) -> str:
        """Display name including the makespan target."""
        return f"AdaptiveLips(target={self.target_makespan:g}s)"
