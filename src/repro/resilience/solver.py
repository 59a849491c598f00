"""Fault-tolerant LP solving: retries and a backend fallback chain.

The paper's online model is built for an unreliable world (the fake node F
keeps every epoch feasible), but a reproduction that dies on one solver
hiccup is not.  :class:`ResilientSolver` wraps an *ordered chain* of LP
backends behind the same ``solve_assembled`` method the plain backends
expose, adding three production behaviours:

* **timeout classification** — a backend that stops on its own wall-clock
  budget (:class:`~repro.lp.scipy_backend.HighsBackend` with
  ``time_limit_s``, which HiGHS enforces inside the solve) returns
  ``TIME_LIMIT``, classified :attr:`FailureKind.TIMEOUT`; the solve never
  leaves the calling thread;
* **bounded retries** on numerical failures (a timeout falls back at
  once: a retry would spend the same budget on the same model), each retry
  applying a small *deterministic* objective perturbation (a classic
  degeneracy-breaking trick — the perturbation pattern depends only on the
  attempt number, so reruns are reproducible);
* **fallback** — when one backend's retry budget is exhausted the next
  backend in the chain gets the model; only when the whole chain fails does
  the caller see a non-optimal :class:`~repro.lp.result.LPResult` (never an
  exception), which the degraded-mode paths in
  :mod:`repro.core.epoch`/:mod:`repro.schedulers.lips` turn into a greedy
  epoch schedule.

Every failure is classified into a :class:`FailureKind` and counted in the
installed :mod:`repro.obs.registry` (``solver_retries_total``,
``solver_fallbacks_total``, ``solver_failures_total``) and emitted on the
ambient trace stream (category ``solver``).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.lp.problem import AssembledLP
from repro.lp.result import LPResult, LPStatus
from repro.obs.registry import current_registry
from repro.obs.trace import current_tracer


class FailureKind(enum.Enum):
    """Classification of one failed solve attempt."""

    TIMEOUT = "timeout"
    NUMERICAL = "numerical"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    BACKEND_ERROR = "backend_error"


#: Failure kinds where retrying (with perturbation) can plausibly help.
#: Infeasibility/unboundedness are model properties — a retry on the same
#: backend is wasted work, though the *next* backend still cross-checks.
#: A timeout goes straight to the next backend too: a perturbed retry
#: would spend the same time budget on the same model again.
RETRYABLE_KINDS = frozenset({FailureKind.NUMERICAL})

#: Relative magnitude of the deterministic objective perturbation applied on
#: retries: small enough that a perturbed optimum is indistinguishable at
#: model tolerances.
PERTURB_SCALE = 1e-7

_STATUS_TO_KIND = {
    LPStatus.INFEASIBLE: FailureKind.INFEASIBLE,
    LPStatus.UNBOUNDED: FailureKind.UNBOUNDED,
    LPStatus.ITERATION_LIMIT: FailureKind.NUMERICAL,
    LPStatus.TIME_LIMIT: FailureKind.TIMEOUT,
    LPStatus.NUMERICAL: FailureKind.NUMERICAL,
    LPStatus.ERROR: FailureKind.BACKEND_ERROR,
}


def classify_result(result: LPResult) -> Optional[FailureKind]:
    """Failure kind of a solve result, or ``None`` when it is optimal."""
    if result.status is LPStatus.OPTIMAL:
        return None
    return _STATUS_TO_KIND.get(result.status, FailureKind.BACKEND_ERROR)


@dataclass(frozen=True)
class SolveAttempt:
    """Record of one failed attempt inside a resilient solve."""

    backend: str
    attempt: int  # 0-based retry index on that backend
    kind: FailureKind
    wall_seconds: float
    message: str = ""


def _backend_name(backend) -> str:
    return getattr(backend, "name", type(backend).__name__)


class ResilientSolver:
    """An LP backend wrapper with retries and fallback.

    Parameters
    ----------
    backends:
        Ordered fallback chain.  Defaults to ``HighsBackend`` then
        ``SimplexBackend`` (production path first, the independent
        from-scratch implementation as a cross-check fallback).  A
        per-solve wall-clock budget belongs to the backend that can honour
        it: ``HighsBackend(time_limit_s=...)``.
    max_retries:
        Extra attempts per backend after the first, each with a perturbed
        objective (scaled by :data:`PERTURB_SCALE`).  Only
        :data:`RETRYABLE_KINDS` failures consume retries.
    """

    name = "resilient"

    def __init__(
        self,
        backends: Optional[Sequence[object]] = None,
        max_retries: int = 2,
    ) -> None:
        if backends is None:
            from repro.lp.scipy_backend import HighsBackend
            from repro.lp.simplex import SimplexBackend

            backends = [HighsBackend(), SimplexBackend()]
        if not backends:
            raise ValueError("ResilientSolver needs at least one backend")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.backends = list(backends)
        self.max_retries = max_retries
        #: failed attempts of the most recent solve_assembled call
        self.last_attempts: List[SolveAttempt] = []
        #: per-column perturbation base of the current solve (lazy, reused
        #: across that solve's retries)
        self._perturb_base: Optional[np.ndarray] = None
        #: lifetime totals (also mirrored into the installed obs registry)
        self.retries_total = 0
        self.fallbacks_total = 0

    # -- public API --------------------------------------------------------
    def solve_assembled(self, asm: AssembledLP) -> LPResult:
        """Solve through the fallback chain; never raises on solver failure.

        Returns the first optimal result.  When every backend's retry
        budget is exhausted, returns the *last* failed result (so callers
        can inspect the terminal status/message) — callers decide whether
        to raise or degrade.
        """
        self.last_attempts = []
        self._perturb_base = None
        last_result: Optional[LPResult] = None
        for chain_pos, backend in enumerate(self.backends):
            attempt = 0
            while True:
                result, kind, wall = self._attempt(backend, asm, attempt)
                if kind is None:
                    return result
                last_result = result
                self._record_failure(backend, attempt, kind, wall, result)
                if kind not in RETRYABLE_KINDS or attempt >= self.max_retries:
                    break
                self._record_retry(backend, attempt, kind)
                attempt += 1
            if chain_pos + 1 < len(self.backends):
                self._record_fallback(backend, self.backends[chain_pos + 1])
        assert last_result is not None
        return last_result

    # -- one attempt -------------------------------------------------------
    def _attempt(
        self, backend, asm: AssembledLP, attempt: int
    ) -> tuple[LPResult, Optional[FailureKind], float]:
        """Run one (possibly perturbed) solve."""
        solve_asm = asm if attempt == 0 else self._perturbed(asm, attempt)
        t0 = time.perf_counter()
        try:
            result = backend.solve_assembled(solve_asm)
        except Exception as exc:  # backend bug / injected fault
            wall = time.perf_counter() - t0
            result = LPResult(
                status=LPStatus.ERROR,
                objective=float("nan"),
                x=None,
                backend=_backend_name(backend),
                message=f"{type(exc).__name__}: {exc}",
            )
            return result, FailureKind.BACKEND_ERROR, wall
        wall = time.perf_counter() - t0
        kind = classify_result(result)
        if kind is None and attempt > 0 and result.x is not None:
            # re-evaluate the true objective: the solve ran on perturbed c
            result.objective = float(asm.c @ result.x) + asm.objective_constant
        return result, kind, wall

    def _perturbed(self, asm: AssembledLP, attempt: int) -> AssembledLP:
        """Objective with a deterministic degeneracy-breaking perturbation.

        The pattern depends only on (attempt, n) — never on clocks or global
        RNG state — so a rerun of the same failing model retries through the
        identical sequence of perturbed problems.

        Only the cost vector is replaced: matrices, bounds and labels of the
        already-assembled model are shared, never re-assembled, and the
        per-column perturbation base is computed once per solve rather than
        per retry.
        """
        if self._perturb_base is None:
            self._perturb_base = PERTURB_SCALE * np.maximum(np.abs(asm.c), 1.0)
        rng = np.random.default_rng(attempt)
        c = asm.c + self._perturb_base * attempt * rng.random(asm.c.shape[0])
        return replace(asm, c=c)

    # -- accounting --------------------------------------------------------
    def _record_failure(
        self, backend, attempt: int, kind: FailureKind, wall: float, result: LPResult
    ) -> None:
        record = SolveAttempt(
            backend=_backend_name(backend),
            attempt=attempt,
            kind=kind,
            wall_seconds=wall,
            message=result.message,
        )
        self.last_attempts.append(record)
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "solver_failures_total", help="failed LP solve attempts by kind"
            ).inc(kind=kind.value, backend=record.backend)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "solver",
                "failure",
                0.0,
                backend=record.backend,
                attempt=attempt,
                kind=kind.value,
                wall_s=wall,
            )

    def _record_retry(self, backend, attempt: int, kind: FailureKind) -> None:
        self.retries_total += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "solver_retries_total", help="LP solve retries (perturbed re-attempts)"
            ).inc(backend=_backend_name(backend), kind=kind.value)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "solver",
                "retry",
                0.0,
                backend=_backend_name(backend),
                attempt=attempt + 1,
                kind=kind.value,
            )

    def _record_fallback(self, from_backend, to_backend) -> None:
        self.fallbacks_total += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "solver_fallbacks_total", help="LP solves handed to the next chain backend"
            ).inc(
                from_backend=_backend_name(from_backend),
                to_backend=_backend_name(to_backend),
            )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.event(
                "solver",
                "fallback",
                0.0,
                from_backend=_backend_name(from_backend),
                to_backend=_backend_name(to_backend),
            )
