"""Run metrics: makespan, dollar cost, locality, utilization.

One :class:`SimMetrics` per simulation run; the experiment harness compares
these across schedulers to regenerate the paper's figures.

The scalar fields live on a per-run
:class:`~repro.obs.registry.MetricsRegistry` (counters for the monotone
quantities, a gauge for the makespan) rather than as ad-hoc attributes —
``metrics.tasks_run += 1`` still works, but the same numbers are also
available as structured, dumpable metric series, and :meth:`publish` folds
a finished run into a process-wide registry (the CLI's ``--metrics``)
labelled by scheduler.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from repro.cost.accounting import CostLedger
from repro.obs.registry import Counter, Gauge, MetricsRegistry


class _CounterField:
    """A SimMetrics attribute backed by a registry counter.

    Reads return the counter total (cast for int-like counts); writes force
    the total, so test fixtures can assign values directly.  Each instance
    holds its counters in ``_metric`` (see :meth:`SimMetrics.__init__`), so
    an access does not look the name up in the registry.
    """

    def __init__(self, help: str = "", as_int: bool = False) -> None:
        self.help = help
        self.as_int = as_int

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def metric(self, registry: MetricsRegistry) -> Counter:
        """The registry counter behind this field."""
        return registry.counter(self.name, help=self.help)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        value = obj._metric[self.name].value()
        return int(value) if self.as_int else value

    def __set__(self, obj, value) -> None:
        obj._metric[self.name].set_total(value)


class _GaugeField:
    """A SimMetrics attribute backed by a registry gauge."""

    def __init__(self, help: str = "") -> None:
        self.help = help

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def metric(self, registry: MetricsRegistry) -> Gauge:
        """The registry gauge behind this field."""
        return registry.gauge(self.name, help=self.help)

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj._metric[self.name].value()

    def __set__(self, obj, value) -> None:
        obj._metric[self.name].set(value)


class SimMetrics:
    """Aggregated outcome of one simulated run."""

    makespan = _GaugeField("latest job finish time, simulated seconds")
    local_read_mb = _CounterField("map input MB read node-locally")
    zone_read_mb = _CounterField("map input MB read intra-zone")
    remote_read_mb = _CounterField("map input MB read cross-zone")
    moved_mb = _CounterField("MB moved between stores by placement")
    tasks_run = _CounterField("successful map attempts", as_int=True)
    speculative_attempts = _CounterField("speculative attempts launched", as_int=True)
    killed_attempts = _CounterField("attempts killed", as_int=True)
    machine_failures = _CounterField("machine failure events", as_int=True)
    failed_attempts = _CounterField("attempts lost to failures", as_int=True)
    lp_solves = _CounterField("LP backend solves during the run", as_int=True)
    lp_solve_seconds = _CounterField("wall seconds spent in LP solves")
    epochs_degraded = _CounterField(
        "epochs planned by the greedy degraded path", as_int=True
    )
    chaos_faults_injected = _CounterField(
        "chaos faults injected into the run", as_int=True
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: the run's metric registry; scalar fields above live here
        self.registry = registry if registry is not None else MetricsRegistry()
        #: field name -> the registry metric behind it, resolved once
        self._metric: Dict[str, Union[Counter, Gauge]] = {
            name: field.metric(self.registry) for name, field in _FIELDS.items()
        }
        self.ledger = CostLedger()
        self.job_durations: Dict[int, float] = {}
        self.machine_cpu_seconds: Dict[int, float] = {}
        self.machine_wall_busy: Dict[int, float] = {}
        #: per-machine time of its last task completion — the "rental window"
        #: an instance-hour biller would charge for
        self.machine_last_finish: Dict[int, float] = {}

    # -- derived -----------------------------------------------------------
    @property
    def total_cost(self) -> float:
        """Total dollars in the run's ledger."""
        return self.ledger.total

    @property
    def total_read_mb(self) -> float:
        """Map-input MB read across all locality classes."""
        return self.local_read_mb + self.zone_read_mb + self.remote_read_mb

    @property
    def data_locality(self) -> float:
        """Fraction of map input read node-locally."""
        total = self.total_read_mb
        return self.local_read_mb / total if total > 0 else 1.0

    @property
    def total_job_execution_time(self) -> float:
        """Sum of job response times (the paper's Figures 7/10 metric)."""
        return float(sum(self.job_durations.values()))

    def utilization(self, total_slots: int) -> float:
        """Busy slot-seconds over available slot-seconds (0 if no work).

        ``total_slots`` is the cluster-wide map-slot count; each busy slot
        contributes its attempt durations to the numerator.
        """
        if self.makespan <= 0 or total_slots == 0:
            return 0.0
        busy = sum(self.machine_wall_busy.values())
        return busy / (self.makespan * total_slots)

    def rental_utilization(self, slots_by_machine: Dict[int, int]) -> float:
        """Busy slot-seconds over *rented* slot-seconds.

        A machine is "rented" from t=0 until its last task completes (an
        instance-hour model: you release it when it goes idle for good).
        Schedulers that pack work tightly onto few machines release the
        rest early and score higher.
        """
        rented = 0.0
        busy = 0.0
        for m, last in self.machine_last_finish.items():
            rented += last * slots_by_machine.get(m, 1)
            busy += self.machine_wall_busy.get(m, 0.0)
        return busy / rented if rented > 0 else 0.0

    def machine_cpu_vector(self, num_machines: int) -> np.ndarray:
        """Per-node accumulated CPU seconds (the Figure 11 breakdown)."""
        out = np.zeros(num_machines)
        for m, v in self.machine_cpu_seconds.items():
            out[m] = v
        return out

    def summary(self) -> Dict[str, float]:
        """Headline metrics as a flat dict."""
        return {
            "total_cost": self.total_cost,
            "makespan": self.makespan,
            "total_job_execution_time": self.total_job_execution_time,
            "data_locality": self.data_locality,
            "tasks_run": float(self.tasks_run),
            "moved_mb": self.moved_mb,
            "speculative_attempts": float(self.speculative_attempts),
        }

    # -- registry integration ----------------------------------------------
    _PUBLISHED_COUNTERS = (
        "local_read_mb", "zone_read_mb", "remote_read_mb", "moved_mb",
        "tasks_run", "speculative_attempts", "killed_attempts",
        "machine_failures", "failed_attempts", "lp_solves",
        "lp_solve_seconds", "epochs_degraded", "chaos_faults_injected",
    )

    def publish(self, target: MetricsRegistry, **labels: object) -> None:
        """Fold this run into ``target``, labelling every series.

        Counters accumulate (several runs under the same labels sum up);
        gauges record the latest run.  Per-machine CPU/busy time becomes a
        labelled series per machine, and the ledger's dollars a series per
        charge category.
        """
        for name in self._PUBLISHED_COUNTERS:
            value = getattr(self, name)
            if value:
                target.counter(name).inc(value, **labels)
        target.gauge("makespan").set(self.makespan, **labels)
        target.gauge("jobs_completed").set(len(self.job_durations), **labels)
        for category, amount in sorted(self.ledger.total_by_category().items()):
            target.counter("cost_dollars").inc(amount, category=category, **labels)
        for m in sorted(self.machine_cpu_seconds):
            target.counter("machine_cpu_seconds").inc(
                self.machine_cpu_seconds[m], machine=m, **labels
            )
        for m in sorted(self.machine_wall_busy):
            target.counter("machine_wall_busy_seconds").inc(
                self.machine_wall_busy[m], machine=m, **labels
            )


#: every registry-backed field of :class:`SimMetrics`, by attribute name
_FIELDS: Dict[str, Union[_CounterField, _GaugeField]] = {
    name: value
    for name, value in vars(SimMetrics).items()
    if isinstance(value, (_CounterField, _GaugeField))
}
