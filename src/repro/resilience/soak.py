"""The soak: seeded fault storms against every execution path, one oracle.

A soak campaign takes a list of seeds.  Each seed fully determines one
scenario (:func:`build_scenario`): a small two-zone cluster, a job set and
a :class:`~repro.resilience.chaos.ChaosPlan` — machine outages,
stragglers, an inter-AZ partition, store read faults.  The campaign drives
the configured targets over that scenario and checks the invariant oracle
(:mod:`repro.resilience.invariants`) after every run:

``sim``
    the block-level Hadoop simulator under a
    :class:`~repro.schedulers.lips.LipsScheduler`, the plan injected;
``online``
    the fractional :class:`~repro.core.epoch.EpochController` loop.
    Both solve through a :class:`~repro.resilience.solver.ResilientSolver`
    whose chain ``force`` can sabotage — ``python -m repro chaos``;
``service``
    the :class:`~repro.serve.service.SchedulingService`, fed one Poisson
    stream per submitter, with machine outages mapped to solver-fail
    windows and stragglers to LP-lag windows, both keyed on the epoch
    clock so a crashed run and its WAL replay inject identical faults.
    It runs the scenario twice: an uninterrupted reference run and a
    victim run killed after each tick in ``kill_after_epochs`` (WAL
    abandoned where it fell) and recovered in place —
    ``python -m repro serve --sim``.  On top of the oracle it gates on a
    byte-identical ledger and completion map vs the reference, a
    pure-suffix trace (:func:`trace_suffix_mismatch`: the victim's trace
    parts, stitched, are the reference record for record), the sim-time
    floor and at least one kill that replayed a WAL record (a kill on a
    snapshot replays nothing and so tests nothing).

A run that crashes is itself a violation (``run_crashed``): the resilience
layer exists so fault storms degrade service rather than kill the process.
Every run counts into a private metrics registry that is merged into the
ambient one (CLI ``--metrics``) under a ``seed`` label, or a ``run`` label
for the service's reference and victim runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.storage import BLOCK_MB
from repro.cluster.topology import Topology
from repro.core.epoch import EpochController
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.obs.registry import MetricsRegistry, current_registry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.resilience.chaos import (
    ChaosPlan,
    FaultInjectingBackend,
    Window,
    in_windows,
    random_chaos_plan,
)
from repro.resilience.invariants import (
    InvariantViolation,
    check_online_invariants,
    check_service_invariants,
    check_sim_invariants,
)
from repro.resilience.solver import ResilientSolver
from repro.schedulers.lips import LipsScheduler
from repro.workload.arrivals import PoissonArrivals
from repro.workload.job import DataObject, Job, Workload

SIM, ONLINE, SERVICE = "sim", "online", "service"

#: mean machine-outage length; the service turns outages into solver-fail
#: windows, which run longer
MEAN_REPAIR_S = 300.0
SERVICE_MEAN_REPAIR_S = 600.0

#: synthetic LP lag added inside the service's straggler-derived windows
LAG_S = 10.0

#: wall-clock attributes: the only fields a rerun of a seeded trace may change
_WALL_FIELDS = ("wall_s", "lp_wall_s")

#: the sim/online targets' resilience counters, each ``<name>_total``
_COUNTED = (
    "chaos_faults_injected",
    "solver_failures",
    "solver_retries",
    "solver_fallbacks",
    "epochs_degraded",
)


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak campaign; each seed is one scenario."""

    seeds: Tuple[int, ...] = (0, 1, 2)
    #: "sim" and/or "online", or "service" alone
    targets: Tuple[str, ...] = (SIM, ONLINE)
    num_machines: int = 6
    #: jobs per submitter
    num_jobs: int = 6
    num_submitters: int = 1
    epoch_length: float = 120.0
    #: chaos windows are drawn inside this span of simulated seconds; each
    #: service submitter's last arrival lands at 90% of it
    horizon_s: float = 3000.0
    chaos: bool = True
    mean_time_to_failure_s: float = 3000.0
    #: backend sabotage of the sim/online chain: "none", "primary" (first
    #: chain backend always fails -> exercises fallback) or "all" (whole
    #: chain fails -> exercises degraded-mode greedy epochs)
    force: str = "none"
    solver_timeout_s: Optional[float] = None
    solver_retries: int = 1
    #: service: ticks between snapshots, victim kill ticks, LP deadline
    checkpoint_every: int = 8
    kill_after_epochs: Tuple[int, ...] = (12,)
    epoch_deadline_s: float = 0.75

    def __post_init__(self) -> None:
        if self.force not in ("none", "primary", "all"):
            raise ValueError("force must be 'none', 'primary' or 'all'")
        if not self.seeds:
            raise ValueError("soak needs at least one seed")
        targets = set(self.targets)
        if not targets or not (targets <= {SIM, ONLINE} or targets == {SERVICE}):
            raise ValueError("targets must be 'sim' and/or 'online', or 'service' alone")
        if SERVICE in targets and len(self.seeds) > 1:
            raise ValueError("a service soak takes one seed (its WAL owns the work dir)")


@dataclass
class SoakOutcome:
    """Everything one seed's soak produced; gate verdicts are violations.

    The solver counters are the sim/online targets'; the fields from
    ``sim_time_s`` on are the service's, all taken from its reference run
    unless they describe recovery.
    """

    seed: int
    violations: List[InvariantViolation] = field(default_factory=list)
    faults_planned: int = 0
    chaos_faults_injected: float = 0.0
    solver_failures: float = 0.0
    solver_retries: float = 0.0
    solver_fallbacks: float = 0.0
    epochs_degraded: float = 0.0
    makespan: float = 0.0
    total_cost: float = 0.0
    sim_time_s: float = 0.0
    epochs: int = 0
    kills: int = 0
    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    deadline_misses: int = 0
    transitions: int = 0
    snapshots: int = 0
    replayed_records: int = 0
    max_replay_drift: float = 0.0
    ledger_identical: bool = False
    #: live-plane accounting (both zero when no plane was attached)
    rolling_reconciliations: int = 0
    max_rolling_residual: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every invariant and gate held for this seed."""
        return not self.violations


@dataclass(frozen=True)
class Scenario:
    """One seed's cluster, jobs (arrival times stamped) and fault plan."""

    cluster: Cluster
    workload: Workload
    plan: ChaosPlan


def build_soak_cluster(num_machines: int, rng: np.random.Generator) -> Cluster:
    """A two-zone cluster with a co-located DataNode per machine."""
    builder = ClusterBuilder(topology=Topology.of(["az1", "az2"]), default_uptime=10_000.0)
    for i in range(num_machines):
        builder.add_machine(
            name=f"soak-{i:02d}",
            ecu=float(rng.choice([1.0, 2.0, 4.0])),
            cpu_cost=float(rng.uniform(1.0e-5, 5.0e-5)),
            zone="az1" if i % 2 == 0 else "az2",
            store_capacity_mb=1.0e6,
        )
    return builder.build()


def build_soak_workload(
    seed: int, config: SoakConfig, num_stores: int, rng: np.random.Generator
) -> Workload:
    """Small input-bearing jobs: 2-5 blocks, 100-400 CPU-s, a random origin.

    The sim/online targets draw each job's arrival uniformly over the first
    eighth of the horizon, right after its sizes.  The service gets one
    Poisson process per submitter (a private seed each), stretched so its
    last arrival lands at 90% of the horizon whatever the draw: a fixed
    count of exponential gaps alone can end the feed long before the
    soak's sim-time gate.  Job ids partition by submitter.
    """
    service = SERVICE in config.targets
    prefix = "serve" if service else "soak"
    jobs: List[Job] = []
    data: List[DataObject] = []
    for k in range(config.num_submitters * config.num_jobs):
        size_mb = float(rng.uniform(2.0, 5.0)) * BLOCK_MB
        cpu_total = float(rng.uniform(100.0, 400.0))
        d = DataObject(
            data_id=k,
            name=f"{prefix}-d{k}",
            size_mb=size_mb,
            origin_store=int(rng.integers(0, num_stores)),
        )
        data.append(d)
        jobs.append(
            Job(
                job_id=k,
                name=f"{prefix}-job-{k}",
                tcp=cpu_total / size_mb,
                data_ids=[k],
                num_tasks=d.num_blocks,
                arrival_time=0.0 if service else float(rng.uniform(0.0, config.horizon_s / 8.0)),
            )
        )
    if service:
        rate = config.num_jobs / (config.horizon_s * 0.9)
        for submitter in range(config.num_submitters):
            own = jobs[submitter * config.num_jobs : (submitter + 1) * config.num_jobs]
            stream = list(PoissonArrivals(own, rate_per_s=rate, seed=seed * 1009 + submitter))
            stretch = config.horizon_s * 0.9 / stream[-1][0]
            for t, job in stream:
                jobs[job.job_id] = dataclasses.replace(job, arrival_time=t * stretch)
    return Workload(jobs=jobs, data=data)


def build_scenario(seed: int, config: SoakConfig) -> Scenario:
    """The seed's scenario: every draw comes from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    cluster = build_soak_cluster(config.num_machines, rng)
    workload = build_soak_workload(seed, config, cluster.num_stores, rng)
    plan = ChaosPlan()
    if config.chaos:
        plan = random_chaos_plan(
            cluster,
            config.horizon_s,
            rng,
            mean_time_to_failure_s=config.mean_time_to_failure_s,
            mean_repair_s=SERVICE_MEAN_REPAIR_S if SERVICE in config.targets else MEAN_REPAIR_S,
        )
    return Scenario(cluster, workload, plan)


def arrival_schedule(
    workload: Workload,
) -> Tuple[List[Tuple[float, Job]], Dict[int, DataObject]]:
    """The service's feed: ``(arrival, job)`` in arrival order (ties by job
    id, so by submitter) and each job's input object."""
    schedule = [(job.arrival_time, job) for job in workload.jobs_by_arrival()]
    return schedule, {job.job_id: workload.data[job.data_ids[0]] for job in workload.jobs}


def derive_service_chaos(plan: ChaosPlan, horizon_s: float) -> Tuple[List[Window], List[Window]]:
    """Map a cluster chaos plan onto the service's failure surface.

    Returns ``(fail_windows, lag_windows)``: machine outages become
    solver-fail windows, stragglers become LP-lag windows.  Open-ended
    outages close at the horizon.
    """
    fail_windows = [
        (e.fail_time, e.recover_time if e.recover_time is not None else horizon_s)
        for e in plan.failures.events
    ]
    lag_windows = [(s.start, s.end) for s in plan.stragglers]
    return fail_windows, lag_windows


def make_lag_injector(lag_windows: Sequence[Window], epoch_length: float) -> Callable[[int], float]:
    """Epoch-indexed synthetic lag: :data:`LAG_S` while a window covers the
    epoch's start time, else 0 — deterministic, so replay-safe."""
    windows = list(lag_windows)
    return lambda epoch: LAG_S if in_windows(windows, epoch * epoch_length) else 0.0


def build_soak_backend(config: SoakConfig) -> ResilientSolver:
    """The sim/online LP chain, sabotaged per ``config.force``."""
    primary: object = HighsBackend(time_limit_s=config.solver_timeout_s)
    fallback: object = SimplexBackend()
    if config.force in ("primary", "all"):
        primary = FaultInjectingBackend(primary)
    if config.force == "all":
        fallback = FaultInjectingBackend(fallback)
    return ResilientSolver([primary, fallback], max_retries=config.solver_retries)


@contextlib.contextmanager
def private_registry(plane=None, **labels) -> Iterator[MetricsRegistry]:
    """Count the block into a fresh registry, then merge it into the ambient
    one (if any) under ``labels``; a live ``plane`` scrapes it meanwhile."""
    ambient = current_registry()
    registry = MetricsRegistry()
    if plane is not None:
        plane.registry = registry
    with use_registry(registry):
        yield registry
    if ambient is not None:
        ambient.merge_from(registry, **labels)


def run_soak(
    config: SoakConfig,
    work_dir: Optional[Path] = None,
    min_sim_hours: float = 2.0,
    plane=None,
) -> List[SoakOutcome]:
    """Soak every seed of ``config``; one outcome per seed.

    The service target keeps its WAL, snapshots and traces in ``work_dir``,
    must cover ``min_sim_hours`` of simulated time, and attaches ``plane`` (a
    :class:`~repro.obs.live.LiveTelemetryPlane`) to every service
    instance, recovered ones included — gating then also on every-epoch
    rolling-ledger reconciliation with zero drift.
    """
    outcomes = []
    for seed in config.seeds:
        outcome = SoakOutcome(seed=seed)
        scenario = build_scenario(seed, config)
        outcome.faults_planned = len(scenario.plan)
        if SERVICE in config.targets:
            _guarded(outcome, "service", _soak_service, scenario, config, outcome,
                     Path(work_dir), min_sim_hours, plane)
        else:
            with private_registry(seed=seed) as registry:
                if SIM in config.targets:
                    _guarded(outcome, "simulator", _soak_sim, scenario, config, outcome)
                if ONLINE in config.targets:
                    _guarded(outcome, "controller", _soak_online, scenario, config, outcome)
                for name in _COUNTED:
                    setattr(outcome, name, registry.counter(f"{name}_total").total())
        outcomes.append(outcome)
    return outcomes


def _guarded(outcome: SoakOutcome, label: str, run: Callable, *args) -> None:
    """Run one target; a crash becomes a ``run_crashed`` violation."""
    try:
        run(*args)
    except Exception as exc:
        outcome.violations.append(
            InvariantViolation("run_crashed", f"{label}: {type(exc).__name__}: {exc}")
        )


def _soak_sim(scenario: Scenario, config: SoakConfig, outcome: SoakOutcome) -> None:
    sim = HadoopSimulator(
        scenario.cluster,
        scenario.workload,
        LipsScheduler(epoch_length=config.epoch_length, backend=build_soak_backend(config)),
        config=SimConfig(replication=2),
        chaos=scenario.plan,
    )
    sim.run()
    outcome.violations.extend(check_sim_invariants(sim))
    outcome.makespan = sim.metrics.makespan
    outcome.total_cost = sim.metrics.total_cost


def _soak_online(scenario: Scenario, config: SoakConfig, outcome: SoakOutcome) -> None:
    controller = EpochController(
        scenario.cluster, config.epoch_length, backend=build_soak_backend(config)
    )
    result = controller.run(scenario.workload)
    outcome.violations.extend(check_online_invariants(result, scenario.workload))


def _soak_service(
    scenario: Scenario,
    config: SoakConfig,
    outcome: SoakOutcome,
    work_dir: Path,
    min_sim_hours: float,
    plane,
) -> None:
    # deferred: a LiPS run imports this package (for the degraded path),
    # and the service stack is this target's alone
    from repro.obs.export import load_jsonl
    from repro.serve.health import HealthConfig
    from repro.serve.journal import ledger_to_dicts
    from repro.serve.service import SchedulingService, ServiceConfig
    from repro.serve.soak import drive_service

    work_dir.mkdir(parents=True, exist_ok=True)
    schedule, data_by_job = arrival_schedule(scenario.workload)
    fail_windows, lag_windows = derive_service_chaos(scenario.plan, config.horizon_s)
    service_config = ServiceConfig(
        epoch_length=config.epoch_length,
        max_pending=64,
        checkpoint_every=config.checkpoint_every,
        health=HealthConfig(epoch_deadline_s=config.epoch_deadline_s),
        # flush-only WAL: a simulated kill loses no flushed record
        wal_fsync=False,
        # abort loudly if the queue ever stops draining, instead of
        # grinding through the global 1e6-epoch default
        max_epochs=int(config.horizon_s / config.epoch_length) * 50,
    )
    rolling_ledgers = []

    def start(tracer, wal_dir: Optional[Path] = None, recovering: bool = False):
        wiring = dict(
            backend=FaultInjectingBackend(
                HighsBackend(), fail_windows=fail_windows, epoch_length=config.epoch_length
            ),
            lag_injector=make_lag_injector(lag_windows, config.epoch_length),
            tracer=tracer,
        )
        stats = None
        if recovering:
            service, stats = SchedulingService.recover(
                scenario.cluster, service_config, wal_dir, **wiring
            )
        else:
            service = SchedulingService(
                scenario.cluster, service_config, wal_dir=wal_dir, **wiring
            )
        if plane is not None:
            service.attach_plane(plane)
        if not recovering:
            service.start()
        rolling_ledgers.append(service.controller.rolling_ledger)
        return service, stats

    # -- reference run: uninterrupted, no persistence ------------------------
    ref_trace = work_dir / "trace-reference.jsonl"
    with private_registry(plane, run="reference") as registry:
        with Tracer.to_path(ref_trace) as tracer, use_tracer(tracer):
            service, _ = start(tracer)
            drive_service(service, schedule, data_by_job)
            outcome.sim_time_s = service.clock
            outcome.epochs_degraded = float(service.controller.degraded_epochs)
            outcome.deadline_misses = int(
                registry.counter("epoch_deadline_misses_total").total()
            )
            outcome.violations.extend(
                check_service_invariants(
                    service, expected_misses=outcome.deadline_misses if lag_windows else None
                )
            )
            ref_result = service.result()
    outcome.transitions = len(service.health.transitions)
    outcome.epochs = ref_result.num_epochs
    outcome.total_cost = ref_result.total_cost
    outcome.makespan = ref_result.makespan
    outcome.submitted = service.admission.submitted
    outcome.admitted = service.admission.admitted
    outcome.shed = service.admission.shed_total
    outcome.completed = len(ref_result.job_completion)

    # -- victim run: one life per kill, each recovered from the last one's WAL
    wal_dir = work_dir / "wal"
    victim_parts: List[Path] = []
    service = None
    with private_registry(plane, run="victim"):
        for life, stop in enumerate([*sorted(config.kill_after_epochs), None]):
            if service is not None:
                # simulated crash: abandon the service object; only release the fd
                service.wal.close()
                outcome.kills += 1
            victim_parts.append(work_dir / f"trace-victim-{life}.jsonl")
            with Tracer.to_path(victim_parts[-1]) as tracer, use_tracer(tracer):
                service, stats = start(tracer, wal_dir, recovering=service is not None)
                if stats is not None:
                    outcome.replayed_records += stats.records_replayed
                    outcome.max_replay_drift = max(outcome.max_replay_drift, stats.max_cost_drift)
                drive_service(
                    service,
                    schedule,
                    data_by_job,
                    start_index=service.admission.submitted,
                    stop_after_ticks=stop,
                )
                if stop is None:
                    outcome.violations.extend(
                        InvariantViolation(v.name, f"victim run: {v.detail}")
                        for v in check_service_invariants(service)
                    )
                    victim_result = service.result()
    outcome.snapshots = len(list(wal_dir.glob("snapshot-*.json")))

    # -- gates ---------------------------------------------------------------
    outcome.ledger_identical = json.dumps(ledger_to_dicts(victim_result.ledger)) == json.dumps(
        ledger_to_dicts(ref_result.ledger)
    )
    if not outcome.ledger_identical:
        drift = abs(victim_result.total_cost - ref_result.total_cost)
        outcome.violations.append(
            InvariantViolation(
                "ledger_recovery",
                f"recovered ledger differs from reference (total drift {drift:.3e})",
            )
        )
    if victim_result.job_completion != ref_result.job_completion:
        outcome.violations.append(
            InvariantViolation(
                "completion_recovery",
                "recovered per-job completion times differ from reference",
            )
        )
    mismatch = trace_suffix_mismatch(
        load_jsonl(ref_trace), [load_jsonl(part) for part in victim_parts]
    )
    if mismatch is not None:
        outcome.violations.append(InvariantViolation("trace_recovery", mismatch))
    if outcome.sim_time_s < min_sim_hours * 3600.0:
        outcome.violations.append(
            InvariantViolation(
                "sim_time",
                f"soak covered {outcome.sim_time_s / 3600.0:.2f}h sim time "
                f"< required {min_sim_hours:.2f}h",
            )
        )
    if config.kill_after_epochs and outcome.replayed_records == 0:
        outcome.violations.append(
            InvariantViolation(
                "kill_recover",
                "no kill/recover cycle replayed a WAL record (every kill "
                "landed on a snapshot)",
            )
        )
    # -- live-plane gates ----------------------------------------------------
    if plane is not None:
        for rolling in rolling_ledgers:
            outcome.rolling_reconciliations += rolling.reconciliations
            outcome.max_rolling_residual = max(
                outcome.max_rolling_residual, rolling.max_residual
            )
            if rolling.drift_events:
                outcome.violations.append(
                    InvariantViolation(
                        "rolling_ledger",
                        f"{rolling.drift_events} reconciliations drifted past "
                        f"{rolling.tol:g} (max residual {rolling.max_residual:.3e})",
                    )
                )
        if outcome.rolling_reconciliations == 0:
            outcome.violations.append(
                InvariantViolation(
                    "rolling_ledger", "plane attached but no reconciliation ever ran"
                )
            )


def trace_suffix_mismatch(
    reference: List[dict], parts: Sequence[List[dict]]
) -> Optional[str]:
    """Why a killed-and-recovered run's trace is not the reference, or None.

    ``parts`` are the victim's per-life traces in order.  Recovery must
    emit a pure suffix: replay re-emits nothing, so once each life's
    ``service.recovered`` event is dropped, the wall-clock fields are
    dropped everywhere and each life's span ids (every life's tracer
    numbers from 1) are shifted past the ids of the lives before it, the
    stitched parts equal the reference record for record.
    """

    def strip(record: dict) -> dict:
        return {k: v for k, v in record.items() if k not in _WALL_FIELDS}

    stitched: List[dict] = []
    offset = 0
    for part in parts:
        top = offset
        for record in part:
            if record.get("cat") == "service" and record.get("name") == "recovered":
                continue
            record = strip(record)
            for key in ("span_id", "parent"):
                if record.get(key) is not None:
                    record[key] += offset
            if record.get("links"):
                record["links"] = [link + offset for link in record["links"]]
            top = max(top, record.get("span_id") or 0)
            stitched.append(record)
        offset = top
    expected = [strip(record) for record in reference]
    if stitched == expected:
        return None
    index = next(
        (i for i, (got, want) in enumerate(zip(stitched, expected)) if got != want),
        min(len(stitched), len(expected)),
    )
    where = f"first differs at record {index}"
    if index < min(len(stitched), len(expected)):
        got, want = stitched[index], expected[index]
        keys = [k for k in sorted({*got, *want}) if got.get(k) != want.get(k)]
        where += f" ({want.get('cat')}.{want.get('name')}: {', '.join(keys)})"
    return (
        f"recovered trace ({len(stitched)} records) is not the reference "
        f"({len(expected)}): {where}"
    )


def soak_summary(outcomes: Sequence[SoakOutcome]) -> Dict[str, float]:
    """Campaign-level aggregates for reporting."""
    return {
        "seeds": float(len(outcomes)),
        "violations": float(sum(len(o.violations) for o in outcomes)),
        "faults_planned": float(sum(o.faults_planned for o in outcomes)),
        "chaos_faults_injected": sum(o.chaos_faults_injected for o in outcomes),
        "solver_failures": sum(o.solver_failures for o in outcomes),
        "solver_retries": sum(o.solver_retries for o in outcomes),
        "solver_fallbacks": sum(o.solver_fallbacks for o in outcomes),
        "epochs_degraded": sum(o.epochs_degraded for o in outcomes),
    }
