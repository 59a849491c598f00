"""Resilience layer: fault-tolerant solving, degraded scheduling, chaos.

Three pieces, layered bottom-up:

* :mod:`repro.resilience.solver` — :class:`ResilientSolver` wraps an ordered
  chain of LP backends with per-solve timeouts, deterministic-perturbation
  retries and fallback, classifying every failure into a
  :class:`FailureKind` and the obs metrics/trace streams;
* :mod:`repro.resilience.degraded` — when the whole chain fails, the greedy
  :func:`greedy_epoch_solution` schedules the epoch anyway (fake-node
  residual semantics preserved) so runs degrade instead of dying;
* :mod:`repro.resilience.chaos` / :mod:`~repro.resilience.soak` /
  :mod:`~repro.resilience.invariants` — seeded fault injection (machine
  outages, stragglers, inter-AZ partitions, store read errors, solver
  faults), the one soak driver behind ``python -m repro chaos`` (the
  simulator and the epoch loop) and ``python -m repro serve --sim`` (the
  service, killed and recovered), and the post-run invariant oracle of
  every target that makes a soak a test rather than a demo.

See DESIGN.md section 8 for the failure taxonomy and semantics.
"""

from repro.resilience.chaos import (
    ChaosPlan,
    FaultInjectingBackend,
    PartitionEvent,
    ReadFaultEvent,
    StragglerEvent,
    random_chaos_plan,
)
from repro.resilience.degraded import DEGRADED_MODEL, greedy_epoch_solution
from repro.resilience.invariants import (
    InvariantViolation,
    check_online_invariants,
    check_service_invariants,
    check_sim_invariants,
)
from repro.resilience.soak import (
    ONLINE,
    SERVICE,
    SIM,
    SoakConfig,
    SoakOutcome,
    build_scenario,
    run_soak,
    soak_summary,
)
from repro.resilience.solver import (
    RETRYABLE_KINDS,
    FailureKind,
    ResilientSolver,
    SolveAttempt,
    classify_result,
)

__all__ = [
    "ChaosPlan",
    "DEGRADED_MODEL",
    "FailureKind",
    "FaultInjectingBackend",
    "InvariantViolation",
    "ONLINE",
    "PartitionEvent",
    "RETRYABLE_KINDS",
    "ReadFaultEvent",
    "ResilientSolver",
    "SERVICE",
    "SIM",
    "SoakConfig",
    "SoakOutcome",
    "SolveAttempt",
    "StragglerEvent",
    "build_scenario",
    "check_online_invariants",
    "check_service_invariants",
    "check_sim_invariants",
    "classify_result",
    "greedy_epoch_solution",
    "random_chaos_plan",
    "run_soak",
    "soak_summary",
]
