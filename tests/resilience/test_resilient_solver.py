"""Tests for ResilientSolver: classification, retries, fallback, timeout."""

import threading
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.assembly import ModelAssembler
from repro.lp.problem import AssembledLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend, SimplexError
from repro.obs import lpprof
from repro.obs.registry import MetricsRegistry, use_registry
from repro.resilience import (
    RETRYABLE_KINDS,
    FailureKind,
    FaultInjectingBackend,
    ResilientSolver,
    classify_result,
)
from repro.resilience import solver as solver_module
from tests.core.test_online_backend_contract import AMPLE_EPOCH_S, POOL, _cluster, _input_for
from tests.lp.dense import dense_lp


def small_lp() -> AssembledLP:
    """min x + y  s.t.  x + 2y >= 2 (written negated), y <= 1."""
    return dense_lp([1.0, 1.0], [[-1.0, -2.0]], [-2.0], bounds=[(0.0, np.inf), (0.0, 1.0)])


class _FailingBackend:
    """Always returns a chosen failure status (or raises)."""

    name = "failing"

    def __init__(self, status=LPStatus.NUMERICAL, exc=None):
        self.status = status
        self.exc = exc
        self.calls = 0
        self.seen_c = []

    def solve_assembled(self, asm):
        self.calls += 1
        self.seen_c.append(np.array(asm.c, copy=True))
        if self.exc is not None:
            raise self.exc
        return LPResult(
            status=self.status, objective=float("nan"), x=None, backend=self.name
        )


class TestClassification:
    def test_optimal_is_none(self):
        res = LPResult(status=LPStatus.OPTIMAL, objective=0.0, x=np.zeros(1))
        assert classify_result(res) is None

    @pytest.mark.parametrize(
        "status,kind",
        [
            (LPStatus.INFEASIBLE, FailureKind.INFEASIBLE),
            (LPStatus.UNBOUNDED, FailureKind.UNBOUNDED),
            (LPStatus.ITERATION_LIMIT, FailureKind.NUMERICAL),
            (LPStatus.TIME_LIMIT, FailureKind.TIMEOUT),
            (LPStatus.NUMERICAL, FailureKind.NUMERICAL),
            (LPStatus.ERROR, FailureKind.BACKEND_ERROR),
        ],
    )
    def test_status_mapping(self, status, kind):
        res = LPResult(status=status, objective=float("nan"), x=None)
        assert classify_result(res) is kind

    def test_only_numerical_retries(self):
        # a timeout falls back at once: a retry would pay the same budget again
        assert RETRYABLE_KINDS == {FailureKind.NUMERICAL}

    def test_simplex_iteration_cap_is_structured(self):
        # satellite: SimplexError carries a structured status, no
        # string-matching anywhere in the classification path
        err = SimplexError("iteration cap 5 reached", status=LPStatus.ITERATION_LIMIT)
        assert err.status is LPStatus.ITERATION_LIMIT
        assert SimplexError("singular").status is LPStatus.NUMERICAL


class TestChain:
    def test_healthy_primary_solves(self):
        solver = ResilientSolver([HighsBackend(), SimplexBackend()])
        res = solver.solve_assembled(small_lp())
        assert res.is_optimal
        assert res.objective == pytest.approx(1.0)
        assert solver.last_attempts == []
        assert solver.fallbacks_total == 0

    def test_fallback_order(self):
        failing = _FailingBackend()
        solver = ResilientSolver([failing, HighsBackend()], max_retries=1)
        res = solver.solve_assembled(small_lp())
        assert res.is_optimal
        assert failing.calls == 2  # first attempt + one retry
        assert solver.fallbacks_total == 1
        assert [a.backend for a in solver.last_attempts] == ["failing", "failing"]

    def test_numerical_retries_bounded(self):
        failing = _FailingBackend()
        solver = ResilientSolver([failing], max_retries=3)
        res = solver.solve_assembled(small_lp())
        assert not res.is_optimal
        assert failing.calls == 4
        assert solver.retries_total == 3

    def test_infeasible_skips_retries_but_falls_back(self):
        failing = _FailingBackend(status=LPStatus.INFEASIBLE)
        solver = ResilientSolver([failing, HighsBackend()], max_retries=3)
        res = solver.solve_assembled(small_lp())
        assert res.is_optimal
        assert failing.calls == 1  # no retry for a model property
        assert solver.retries_total == 0
        assert solver.fallbacks_total == 1

    def test_exception_classified_backend_error(self):
        failing = _FailingBackend(exc=RuntimeError("boom"))
        solver = ResilientSolver([failing], max_retries=2)
        res = solver.solve_assembled(small_lp())
        assert res.status is LPStatus.ERROR
        assert "boom" in res.message
        assert solver.last_attempts[0].kind is FailureKind.BACKEND_ERROR
        assert failing.calls == 1  # backend errors are not retried

    def test_whole_chain_failure_returns_last_result(self):
        solver = ResilientSolver(
            [_FailingBackend(), _FailingBackend(status=LPStatus.ERROR)], max_retries=0
        )
        res = solver.solve_assembled(small_lp())
        assert res.status is LPStatus.ERROR  # the *last* backend's verdict
        assert solver.fallbacks_total == 1

    def test_needs_at_least_one_backend(self):
        with pytest.raises(ValueError):
            ResilientSolver([])


class TestPerturbation:
    def test_retry_objective_is_perturbed_deterministically(self):
        a = _FailingBackend()
        ResilientSolver([a], max_retries=2).solve_assembled(small_lp())
        b = _FailingBackend()
        ResilientSolver([b], max_retries=2).solve_assembled(small_lp())
        assert len(a.seen_c) == 3
        # attempt 0 solves the unperturbed objective
        np.testing.assert_array_equal(a.seen_c[0], small_lp().c)
        assert not np.array_equal(a.seen_c[0], a.seen_c[1])
        assert not np.array_equal(a.seen_c[1], a.seen_c[2])
        # rerun retries through the identical perturbation sequence
        for ca, cb in zip(a.seen_c, b.seen_c):
            np.testing.assert_array_equal(ca, cb)

    def test_perturbed_solve_reports_true_objective(self, monkeypatch):
        class FlakyOnce:
            name = "flaky"
            calls = 0

            def solve_assembled(self, asm):
                FlakyOnce.calls += 1
                if FlakyOnce.calls == 1:
                    return LPResult(
                        status=LPStatus.NUMERICAL, objective=float("nan"), x=None
                    )
                return HighsBackend().solve_assembled(asm)

        monkeypatch.setattr(solver_module, "PERTURB_SCALE", 1e-3)
        solver = ResilientSolver([FlakyOnce()], max_retries=1)
        res = solver.solve_assembled(small_lp())
        assert res.is_optimal
        # even with a coarse perturbation the reported objective is
        # re-evaluated against the ORIGINAL coefficients
        assert res.objective == pytest.approx(1.0, abs=1e-6)


class TestTimeout:
    def test_slow_solve_times_out_and_falls_back(self, monkeypatch):
        """HiGHS's own time limit times a Fig 4 epoch solve out, no thread."""
        asm = ModelAssembler(
            _input_for(_cluster(), POOL),
            include_xd=True,
            horizon=AMPLE_EPOCH_S,
            include_fake=True,
            epoch_bandwidth=True,
        ).build()
        want = SimplexBackend().solve_assembled(asm)
        assert want.is_optimal

        def no_threads(*args, **kwargs):
            raise AssertionError("a timed solve must not start a thread")

        monkeypatch.setattr(threading, "Thread", no_threads)
        solver = ResilientSolver(
            [HighsBackend(time_limit_s=1e-9), SimplexBackend()], max_retries=2
        )
        res = solver.solve_assembled(asm)
        assert res.is_optimal and res.backend == "simplex"
        assert res.objective == want.objective
        assert np.array_equal(res.x, want.x)
        # the one HiGHS attempt ran out of time and went straight to the
        # fallback: no retry spends the same budget again
        assert [(a.backend, a.kind) for a in solver.last_attempts] == [
            ("highs", FailureKind.TIMEOUT)
        ]
        assert solver.retries_total == 0 and solver.fallbacks_total == 1

    def test_fast_solve_unaffected_by_timeout(self):
        solver = ResilientSolver([HighsBackend(time_limit_s=30.0)])
        assert solver.solve_assembled(small_lp()).is_optimal
        assert solver.last_attempts == []

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            HighsBackend(time_limit_s=0.0)
        with pytest.raises(ValueError):
            ResilientSolver([HighsBackend()], max_retries=-1)


class TestCounters:
    def test_counters_and_labels(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            solver = ResilientSolver([_FailingBackend(), HighsBackend()], max_retries=1)
            solver.solve_assembled(small_lp())
        assert registry.counter("solver_retries_total").total() == 1
        assert registry.counter("solver_fallbacks_total").value(
            from_backend="failing", to_backend="highs"
        ) == 1
        assert registry.counter("solver_failures_total").value(
            kind="numerical", backend="failing"
        ) == 2

    def test_no_registry_is_fine(self):
        solver = ResilientSolver([_FailingBackend(), HighsBackend()], max_retries=1)
        assert solver.solve_assembled(small_lp()).is_optimal


class _CountingBackend:
    """HiGHS, counting the solves that reach it."""

    def __init__(self):
        self.inner = HighsBackend()
        self.calls = 0

    def solve_assembled(self, asm):
        self.calls += 1
        return self.inner.solve_assembled(asm)


class TestFaultInjectingBackend:
    @pytest.mark.parametrize(
        "schedule, kind, epochs, failed",
        [
            # count-keyed: the first two solves fail, whatever their epoch
            ({"fail_first": 2}, "solver", [None, None, None], [True, True, False]),
            # window-keyed: epochs starting inside [60, 180) fail, epoch 1
            # again (a replay) fails again, and a solve outside any epoch
            # scope passes through — the epoch clock decides, not the count
            (
                {"fail_windows": [(60.0, 180.0)], "epoch_length": 60.0},
                "solver-window",
                [0, 1, 2, 3, 1, None],
                [False, True, True, False, True, False],
            ),
        ],
        ids=["first-n", "epoch-windows"],
    )
    def test_fault_schedule(self, schedule, kind, epochs, failed):
        inner = _CountingBackend()
        registry = MetricsRegistry()
        asm = small_lp()
        results = []
        with use_registry(registry):
            chaos = FaultInjectingBackend(inner, **schedule)
            for epoch in epochs:
                scope = lpprof.scope(epoch=epoch) if epoch is not None else nullcontext()
                with scope:
                    results.append(chaos.solve_assembled(asm))
        assert [not r.is_optimal for r in results] == failed
        assert all(r.status is LPStatus.NUMERICAL for r in results if not r.is_optimal)
        assert chaos.faults_injected == sum(failed)
        assert inner.calls == len(failed) - sum(failed)
        assert registry.counter("chaos_faults_injected_total").value(kind=kind) == sum(failed)

    def test_fail_all_and_counting(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            chaos = FaultInjectingBackend(HighsBackend())
            for _ in range(3):
                assert not chaos.solve_assembled(small_lp()).is_optimal
        assert chaos.faults_injected == 3
        assert registry.counter("chaos_faults_injected_total").value(kind="solver") == 3

    def test_raise_mode(self):
        chaos = FaultInjectingBackend(HighsBackend(), raise_exception=True)
        with pytest.raises(RuntimeError, match="injected"):
            chaos.solve_assembled(small_lp())
