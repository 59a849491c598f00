"""The chaos soak: seeded fault storms against both execution paths.

One soak run takes a list of seeds; for each seed it

1. synthesises a small two-zone cluster and workload (pure functions of the
   seed),
2. draws a :class:`~repro.resilience.chaos.ChaosPlan` from the same seed —
   machine outages, stragglers, an inter-AZ partition, store read faults —
   and optionally sabotages the LP backend chain
   (:class:`~repro.resilience.chaos.FaultInjectingBackend`),
3. drives the full Hadoop simulator under a
   :class:`~repro.schedulers.lips.LipsScheduler` *and* the epoch controller
   online loop, both solving through a
   :class:`~repro.resilience.solver.ResilientSolver`,
4. checks the post-run invariants (:mod:`repro.resilience.invariants`) and
   snapshots the resilience counters.

A run that *crashes* is itself an invariant violation (``run_crashed``) —
the whole point of the resilience layer is that fault storms degrade
service rather than kill the process.  ``python -m repro chaos`` wraps this
and exits non-zero on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.storage import BLOCK_MB
from repro.cluster.topology import Topology
from repro.core.epoch import EpochController
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from repro.obs.registry import MetricsRegistry, current_registry, use_registry
from repro.resilience.chaos import FaultInjectingBackend, random_chaos_plan
from repro.resilience.invariants import (
    InvariantViolation,
    check_online_invariants,
    check_sim_invariants,
)
from repro.resilience.solver import ResilientSolver
from repro.schedulers.lips import LipsScheduler
from repro.workload.job import DataObject, Job, Workload


@dataclass(frozen=True)
class ChaosSoakConfig:
    """Shape of one soak campaign."""

    seeds: Tuple[int, ...] = (0, 1, 2)
    num_machines: int = 6
    num_jobs: int = 6
    epoch_length: float = 120.0
    #: chaos windows are drawn inside this span of simulated seconds
    horizon_s: float = 3000.0
    #: backend sabotage: "none", "primary" (first chain backend always
    #: fails -> exercises fallback) or "all" (whole chain fails ->
    #: exercises degraded-mode greedy epochs)
    force: str = "none"
    mean_time_to_failure_s: float = 3000.0
    mean_repair_s: float = 300.0
    solver_timeout_s: Optional[float] = None
    solver_retries: int = 1

    def __post_init__(self) -> None:
        if self.force not in ("none", "primary", "all"):
            raise ValueError("force must be 'none', 'primary' or 'all'")
        if not self.seeds:
            raise ValueError("soak needs at least one seed")


@dataclass
class SoakOutcome:
    """Everything one seed's soak produced."""

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

    @property
    def ok(self) -> bool:
        """True when every invariant held for this seed."""
        return not self.violations


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
    num_jobs: int, num_stores: int, horizon_s: float, rng: np.random.Generator
) -> Workload:
    """Small input-bearing jobs arriving over the first eighth of the horizon."""
    jobs: List[Job] = []
    data: List[DataObject] = []
    for k in range(num_jobs):
        size_mb = float(rng.uniform(2.0, 5.0)) * BLOCK_MB
        cpu_total = float(rng.uniform(100.0, 400.0))
        d = DataObject(
            data_id=k,
            name=f"soak-d{k}",
            size_mb=size_mb,
            origin_store=int(rng.integers(0, num_stores)),
        )
        data.append(d)
        jobs.append(
            Job(
                job_id=k,
                name=f"soak-job-{k}",
                tcp=cpu_total / size_mb,
                data_ids=[k],
                num_tasks=d.num_blocks,
                arrival_time=float(rng.uniform(0.0, horizon_s / 8.0)),
            )
        )
    return Workload(jobs=jobs, data=data)


def build_soak_backend(config: ChaosSoakConfig) -> ResilientSolver:
    """The LP chain under test, sabotaged per ``config.force``."""
    primary: object = HighsBackend(time_limit_s=config.solver_timeout_s)
    fallback: object = SimplexBackend()
    if config.force in ("primary", "all"):
        primary = FaultInjectingBackend(primary)
    if config.force == "all":
        fallback = FaultInjectingBackend(fallback)
    return ResilientSolver([primary, fallback], max_retries=config.solver_retries)


def run_chaos_soak_seed(seed: int, config: ChaosSoakConfig) -> SoakOutcome:
    """Soak one seed through both execution paths; returns its outcome."""
    outcome = SoakOutcome(seed=seed)
    # each seed gets a private registry (isolated counters); the ambient
    # one (CLI --metrics) receives a merged, seed-labelled copy at the end
    ambient = current_registry()
    registry = MetricsRegistry()
    with use_registry(registry):
        rng = np.random.default_rng(seed)
        cluster = build_soak_cluster(config.num_machines, rng)
        workload = build_soak_workload(
            config.num_jobs, cluster.num_stores, config.horizon_s, rng
        )
        plan = random_chaos_plan(
            cluster,
            config.horizon_s,
            rng,
            mean_time_to_failure_s=config.mean_time_to_failure_s,
            mean_repair_s=config.mean_repair_s,
        )
        outcome.faults_planned = len(plan)

        # phase 1: the block-level Hadoop simulator under LiPS
        sim = HadoopSimulator(
            cluster,
            workload,
            LipsScheduler(epoch_length=config.epoch_length, backend=build_soak_backend(config)),
            config=SimConfig(replication=2),
            chaos=plan,
        )
        try:
            sim.run()
            outcome.violations.extend(check_sim_invariants(sim))
            outcome.makespan = sim.metrics.makespan
            outcome.total_cost = sim.metrics.total_cost
        except Exception as exc:
            outcome.violations.append(
                InvariantViolation("run_crashed", f"simulator: {type(exc).__name__}: {exc}")
            )

        # phase 2: the fractional online epoch controller
        controller = EpochController(
            cluster, config.epoch_length, backend=build_soak_backend(config)
        )
        try:
            result = controller.run(workload)
            outcome.violations.extend(check_online_invariants(result, workload))
        except Exception as exc:
            outcome.violations.append(
                InvariantViolation("run_crashed", f"controller: {type(exc).__name__}: {exc}")
            )

    outcome.chaos_faults_injected = registry.counter("chaos_faults_injected_total").total()
    outcome.solver_failures = registry.counter("solver_failures_total").total()
    outcome.solver_retries = registry.counter("solver_retries_total").total()
    outcome.solver_fallbacks = registry.counter("solver_fallbacks_total").total()
    outcome.epochs_degraded = registry.counter("epochs_degraded_total").total()
    if ambient is not None:
        ambient.merge_from(registry, seed=seed)
    return outcome


def run_chaos_soak(config: ChaosSoakConfig) -> List[SoakOutcome]:
    """Run every seed in ``config.seeds``; one outcome per seed."""
    return [run_chaos_soak_seed(seed, config) for seed in config.seeds]


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
