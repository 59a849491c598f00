"""Tests for degraded-mode scheduling: the greedy epoch fallback."""

import numpy as np
import pytest

from repro.core.assembly import ModelAssembler
from repro.core.co_online import OnlineModelUnsolved, solve_co_online
from repro.core.epoch import EpochController, plan_epoch
from repro.core.solution import validate_solution
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp.result import LPResult, LPStatus
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.resilience import DEGRADED_MODEL, greedy_epoch_solution
from repro.schedulers import LipsScheduler
from repro.workload.job import DataObject, Job, Workload


class _DeadBackend:
    """Every solve fails: the whole-chain-down scenario."""

    name = "dead"

    def solve_assembled(self, asm):
        return LPResult(
            status=LPStatus.NUMERICAL, objective=float("nan"), x=None, backend=self.name
        )


class TestGreedySolution:
    def test_feasible_and_validates(self, small_input):
        sol = greedy_epoch_solution(small_input, epoch_length=600.0)
        assert sol.model == DEGRADED_MODEL
        validate_solution(small_input, sol, horizon=600.0)

    def test_fractions_conserved(self, small_input):
        sol = greedy_epoch_solution(small_input, epoch_length=600.0)
        for k in range(small_input.num_jobs):
            placed = sol.xt_data[k].sum() + sol.xt_free[k].sum() + sol.fake[k]
            assert placed == pytest.approx(1.0)

    def test_prefers_cheap_machines(self, small_input):
        # zone-b machines are 5x cheaper in the two_zone_cluster fixture
        sol = greedy_epoch_solution(small_input, epoch_length=10_000.0)
        cheap = sol.xt_data[:, 2:, :].sum() + sol.xt_free[:, 2:].sum()
        pricey = sol.xt_data[:, :2, :].sum() + sol.xt_free[:, :2].sum()
        assert cheap > pricey

    def test_data_stays_at_origin(self, small_input):
        sol = greedy_epoch_solution(small_input, epoch_length=600.0)
        for i in range(small_input.num_data):
            off_origin = np.delete(sol.xd[i], small_input.origin[i])
            assert off_origin.sum() == 0.0

    def test_tiny_epoch_parks_on_fake_node(self, small_input):
        sol = greedy_epoch_solution(small_input, epoch_length=0.01)
        assert sol.fake.sum() > 0  # not everything fits in 10 ms

    def test_respects_store_capacity(self, small_input):
        cap = np.zeros(small_input.num_stores)
        sol = greedy_epoch_solution(small_input, epoch_length=600.0, store_capacity=cap)
        # data jobs cannot place anything; the input-less job still runs
        assert sol.xt_data.sum() == pytest.approx(0.0)
        assert sol.xt_free.sum() > 0

    def test_deterministic(self, small_input):
        a = greedy_epoch_solution(small_input, epoch_length=600.0)
        b = greedy_epoch_solution(small_input, epoch_length=600.0)
        np.testing.assert_array_equal(a.xt_data, b.xt_data)
        np.testing.assert_array_equal(a.fake, b.fake)
        assert a.objective == b.objective

    def test_epoch_length_validation(self, small_input):
        with pytest.raises(ValueError):
            greedy_epoch_solution(small_input, epoch_length=0.0)


class TestSolveCoOnlineOnFailure:
    def test_default_still_raises(self, small_input):
        with pytest.raises(OnlineModelUnsolved, match="not solvable"):
            solve_co_online(small_input, epoch_length=600.0, backend=_DeadBackend())

    def test_greedy_fallback_returns_degraded_solution(self, small_input):
        sol = _plan(small_input, _DeadBackend())
        assert sol.model == DEGRADED_MODEL
        validate_solution(small_input, sol, horizon=600.0)

    def test_backend_exception_degrades_too(self, small_input):
        class Raising:
            name = "raising"

            def solve_assembled(self, asm):
                raise RuntimeError("chain exploded")

        with pytest.raises(OnlineModelUnsolved, match="chain exploded"):
            solve_co_online(small_input, epoch_length=600.0, backend=Raising())
        assert _plan(small_input, Raising()).model == DEGRADED_MODEL

    def test_assembly_error_propagates_and_is_not_degraded(self, small_input, monkeypatch):
        def broken_build(self):
            raise ValueError("malformed model")

        monkeypatch.setattr(ModelAssembler, "build", broken_build)
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(ValueError, match="malformed model"):
            _plan(small_input, _DeadBackend())
        assert registry.counter("epochs_degraded_total").total() == 0

    def test_force_degraded_skips_the_lp(self, small_input):
        class Unreachable:
            name = "unreachable"

            def solve_assembled(self, asm):
                raise AssertionError("a forced-degraded epoch must not solve")

        sol = _plan(small_input, Unreachable(), force_degraded=True)
        assert sol.model == DEGRADED_MODEL


def _plan(inp, backend, force_degraded=False):
    return plan_epoch(
        inp,
        600.0,
        backend,
        scheduler="test",
        tracer=NULL_TRACER,
        ts=0.0,
        fields={},
        force_degraded=force_degraded,
    )


def _lips_workload():
    data = [DataObject(data_id=0, name="d", size_mb=256.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=1.0, data_ids=[0], num_tasks=4)]
    return Workload(jobs=jobs, data=data)


def _lips_degraded_epochs(request):
    sim = HadoopSimulator(
        request.getfixturevalue("tiny_cluster"),
        _lips_workload(),
        LipsScheduler(epoch_length=60.0, backend=_DeadBackend()),
        config=SimConfig(replication=1),
    )
    sim.run()
    return sim.metrics.epochs_degraded


def _controller_degraded_epochs(request):
    controller = EpochController(
        request.getfixturevalue("two_zone_cluster"), epoch_length=600.0, backend=_DeadBackend()
    )
    controller.run(request.getfixturevalue("small_workload"))
    return controller.degraded_epochs


@pytest.mark.parametrize(
    "label, run",
    [("lips", _lips_degraded_epochs), ("epoch-controller", _controller_degraded_epochs)],
)
def test_drivers_count_degraded_epochs_once(label, run, request):
    """The counter, the driver's own count and the traced events agree."""
    registry = MetricsRegistry()
    tracer = Tracer()
    with use_registry(registry), use_tracer(tracer):
        degraded = run(request)
    events = [
        r for r in tracer.records if r.get("cat") == "epoch" and r.get("name") == "degraded"
    ]
    counter = registry.counter("epochs_degraded_total")
    assert degraded > 0
    assert counter.value(scheduler=label) == counter.total() == degraded == len(events)


class TestDegradedEpochController:
    def test_run_completes_on_dead_backend(self, two_zone_cluster, small_workload):
        registry = MetricsRegistry()
        with use_registry(registry):
            controller = EpochController(
                two_zone_cluster, epoch_length=600.0, backend=_DeadBackend()
            )
            result = controller.run(small_workload)
        assert set(result.job_completion) == {0, 1, 2}
        assert controller.degraded_epochs == result.num_epochs > 0
        assert all(r.degraded for r in result.reports)
        assert registry.counter("epochs_degraded_total").total() == result.num_epochs
        # degraded epochs still bill real dollars
        assert result.total_cost > 0

    def test_degraded_cost_no_better_than_lp(self, two_zone_cluster, small_workload):
        lp = EpochController(two_zone_cluster, epoch_length=600.0).run(small_workload)
        degraded = EpochController(
            two_zone_cluster, epoch_length=600.0, backend=_DeadBackend()
        ).run(small_workload)
        assert degraded.total_cost >= lp.total_cost - 1e-9

    def test_healthy_run_reports_not_degraded(self, two_zone_cluster, small_workload):
        controller = EpochController(two_zone_cluster, epoch_length=600.0)
        result = controller.run(small_workload)
        assert controller.degraded_epochs == 0
        assert not any(r.degraded for r in result.reports)


class TestDegradedLips:
    def test_sim_completes_on_dead_backend(self, tiny_cluster):
        sim = HadoopSimulator(
            tiny_cluster,
            _lips_workload(),
            LipsScheduler(epoch_length=60.0, backend=_DeadBackend()),
            config=SimConfig(replication=1),
        )
        result = sim.run()
        assert sim.metrics.epochs_degraded > 0
        assert result.metrics.tasks_run == 4
