"""Watchdog state machine: HEALTHY / DEGRADED / SHEDDING / RECOVERING."""

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer
from repro.serve.health import HealthConfig, HealthMonitor, ServiceState


def _config(**overrides) -> HealthConfig:
    defaults = dict(
        epoch_deadline_s=1.0,
        miss_threshold=2,
        probe_every=4,
        recover_after=3,
        shed_high=48,
        shed_low=16,
    )
    defaults.update(overrides)
    return HealthConfig(**defaults)


def _miss(monitor, epoch):
    return monitor.observe_epoch(epoch, used_lp=True, missed=True, backlog=0)


def _ok(monitor, epoch):
    return monitor.observe_epoch(epoch, used_lp=True, missed=False, backlog=0)


class TestPlanEpoch:
    def test_healthy_and_recovering_always_plan_lp(self):
        monitor = HealthMonitor(config=_config())
        assert monitor.plan_epoch()
        monitor.state = ServiceState.RECOVERING
        assert monitor.plan_epoch()

    def test_shedding_never_plans_lp(self):
        monitor = HealthMonitor(config=_config())
        monitor.state = ServiceState.SHEDDING
        assert not monitor.plan_epoch()

    def test_degraded_probes_on_cadence(self):
        monitor = HealthMonitor(config=_config(probe_every=4))
        monitor.state = ServiceState.DEGRADED
        plans = []
        for epochs_in_state in range(8):
            monitor.epochs_in_state = epochs_in_state
            plans.append(monitor.plan_epoch())
        # probes on the 4th, 8th, ... epoch spent in DEGRADED
        assert plans == [False, False, False, True, False, False, False, True]


class TestTransitions:
    def test_healthy_to_degraded_needs_consecutive_misses(self):
        monitor = HealthMonitor(config=_config(miss_threshold=2))
        assert _miss(monitor, 0) is None
        assert _ok(monitor, 1) is None  # streak broken
        assert _miss(monitor, 2) is None
        transition = _miss(monitor, 3)
        assert transition is not None
        assert (transition.src, transition.dst) == (
            ServiceState.HEALTHY,
            ServiceState.DEGRADED,
        )
        assert monitor.state is ServiceState.DEGRADED

    def test_degraded_probe_success_starts_probation(self):
        monitor = HealthMonitor(config=_config())
        _miss(monitor, 0)
        _miss(monitor, 1)
        assert monitor.state is ServiceState.DEGRADED
        # greedy epochs (no LP) do not advance the miss/ok streaks
        assert monitor.observe_epoch(2, used_lp=False, missed=False, backlog=0) is None
        transition = _ok(monitor, 3)
        assert transition is not None
        assert transition.dst is ServiceState.RECOVERING
        assert "deadline" in transition.reason

    def test_recovering_promotes_after_streak(self):
        monitor = HealthMonitor(config=_config(recover_after=3))
        monitor.state = ServiceState.RECOVERING
        assert _ok(monitor, 0) is None
        assert _ok(monitor, 1) is None
        transition = _ok(monitor, 2)
        assert transition is not None
        assert transition.dst is ServiceState.HEALTHY

    def test_recovering_demotes_on_probation_miss(self):
        monitor = HealthMonitor(config=_config())
        monitor.state = ServiceState.RECOVERING
        transition = _miss(monitor, 0)
        assert transition is not None
        assert transition.dst is ServiceState.DEGRADED
        assert "probation" in transition.reason

    @pytest.mark.parametrize(
        "src",
        [ServiceState.HEALTHY, ServiceState.DEGRADED, ServiceState.RECOVERING],
    )
    def test_backlog_outranks_everything(self, src):
        monitor = HealthMonitor(config=_config(shed_high=10, shed_low=4))
        monitor.state = src
        transition = monitor.observe_epoch(0, used_lp=True, missed=False, backlog=10)
        assert transition is not None
        assert transition.dst is ServiceState.SHEDDING
        assert monitor.shedding

    def test_shedding_exits_at_low_watermark(self):
        monitor = HealthMonitor(config=_config(shed_high=10, shed_low=4))
        monitor.state = ServiceState.SHEDDING
        # hysteresis: staying between the watermarks does nothing
        assert monitor.observe_epoch(0, used_lp=False, missed=False, backlog=7) is None
        transition = monitor.observe_epoch(1, used_lp=False, missed=False, backlog=4)
        assert transition is not None
        assert transition.dst is ServiceState.RECOVERING

    def test_transition_resets_streaks(self):
        monitor = HealthMonitor(config=_config(miss_threshold=2))
        _miss(monitor, 0)
        _miss(monitor, 1)
        assert monitor.consecutive_misses == 0
        assert monitor.epochs_in_state == 0


class TestObservability:
    def test_transitions_counted_and_traced(self, tmp_path):
        registry = MetricsRegistry()
        trace_path = tmp_path / "trace.jsonl"
        with use_registry(registry):
            with Tracer.to_path(trace_path) as tracer:
                monitor = HealthMonitor(config=_config(miss_threshold=1))
                monitor.observe_epoch(
                    5, used_lp=True, missed=True, backlog=0, tracer=tracer, ts=300.0
                )
        counter = registry.counter("service_transitions_total")
        assert counter.value(src="healthy", dst="degraded") == 1
        assert counter.total() == len(monitor.transitions) == 1
        lines = [ln for ln in trace_path.read_text().splitlines() if '"service"' in ln]
        assert any('"transition"' in ln and '"degraded"' in ln for ln in lines)


class TestSnapshot:
    def test_round_trip_preserves_streaks(self):
        monitor = HealthMonitor(config=_config(miss_threshold=3))
        _miss(monitor, 0)
        _miss(monitor, 1)
        clone = HealthMonitor.from_dict(monitor.to_dict(), monitor.config)
        assert clone.state is monitor.state
        assert clone.consecutive_misses == monitor.consecutive_misses
        # the clone continues the exact decision sequence
        assert (_miss(monitor, 2) is None) == (_miss(clone, 2) is None)
        assert clone.state is monitor.state is ServiceState.DEGRADED


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"epoch_deadline_s": 0.0},
            {"miss_threshold": 0},
            {"probe_every": 0},
            {"recover_after": 0},
            {"shed_high": 4, "shed_low": 4},
        ],
    )
    def test_rejects_degenerate_configs(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)


class TestSLOConfig:
    @pytest.mark.parametrize(
        "overrides",
        [{"window_epochs": 0}, {"miss_budget": 0.0}, {"miss_budget": 1.5}],
    )
    def test_rejects_degenerate_configs(self, overrides):
        from repro.serve.health import SLOConfig

        with pytest.raises(ValueError):
            SLOConfig(**overrides)


class TestSLOTracker:
    def _tracker(self, **overrides):
        from repro.serve.health import SLOConfig, SLOTracker

        return SLOTracker(config=SLOConfig(**overrides), deadline_s=1.0)

    def test_miss_rate_counts_only_lp_epochs(self):
        slo = self._tracker(window_epochs=16, miss_budget=0.5)
        slo.observe(0, used_lp=True, missed=True, lag_s=2.0)
        slo.observe(1, used_lp=True, missed=False, lag_s=0.1)
        # greedy epochs cannot miss and do not dilute the rate
        slo.observe(2, used_lp=False, missed=False)
        assert slo.window_size == 3
        assert slo.lp_epochs == 2
        assert slo.misses == 1
        assert slo.miss_rate == pytest.approx(0.5)

    def test_window_slides(self):
        slo = self._tracker(window_epochs=4, miss_budget=0.5)
        for epoch in range(4):
            slo.observe(epoch, used_lp=True, missed=True, lag_s=2.0)
        assert slo.miss_rate == pytest.approx(1.0)
        for epoch in range(4, 8):
            slo.observe(epoch, used_lp=True, missed=False, lag_s=0.1)
        # the misses have slid out of the window
        assert slo.miss_rate == 0.0
        assert slo.window_size == 4
        assert slo.epochs_observed == 8

    def test_burn_rate_and_budget(self):
        slo = self._tracker(window_epochs=16, miss_budget=0.25)
        for epoch in range(8):
            slo.observe(epoch, used_lp=True, missed=epoch == 0, lag_s=0.1)
        # 1 miss / 8 LP epochs = 12.5% vs a 25% budget: half burned
        assert slo.burn_rate == pytest.approx(0.5)
        assert slo.budget_remaining == pytest.approx(0.5)

    def test_budget_remaining_clamps_when_over_budget(self):
        slo = self._tracker(window_epochs=8, miss_budget=0.05)
        for epoch in range(4):
            slo.observe(epoch, used_lp=True, missed=True, lag_s=3.0)
        assert slo.burn_rate > 1.0
        assert slo.budget_remaining == 0.0

    def test_empty_window_is_quiet(self):
        slo = self._tracker()
        assert slo.miss_rate == 0.0
        assert slo.burn_rate == 0.0
        assert slo.budget_remaining == 1.0
        assert slo.quantile(0.95) == 0.0

    def test_lag_quantiles_only_from_lp_epochs(self):
        slo = self._tracker()
        for epoch in range(50):
            slo.observe(epoch, used_lp=True, missed=False, lag_s=0.01)
        slo.observe(50, used_lp=False, missed=False, lag_s=99.0)  # ignored
        payload = slo.to_dict()
        assert payload["lag_observations"] == 50
        assert payload["lag_quantiles_s"]["p99"] < 1.0

    def test_to_dict_shape(self):
        slo = self._tracker(window_epochs=32, miss_budget=0.1)
        slo.observe(0, used_lp=True, missed=False, lag_s=0.2)
        payload = slo.to_dict()
        assert payload["window_epochs"] == 32
        assert payload["miss_budget"] == pytest.approx(0.1)
        assert set(payload["lag_quantiles_s"]) == {"p50", "p95", "p99"}
        import json

        json.dumps(payload)  # must be JSON-ready for /healthz

    def test_deterministic_replay(self):
        # the tracker is a pure function of the observed sequence
        verdicts = [(e, e % 3 != 0, e % 5 == 0, 0.1 * e) for e in range(40)]
        a, b = self._tracker(), self._tracker()
        for epoch, used_lp, missed, lag in verdicts:
            a.observe(epoch, used_lp, missed, lag)
            b.observe(epoch, used_lp, missed, lag)
        assert a.to_dict() == b.to_dict()


class TestMonitorSLOWiring:
    def test_observe_epoch_feeds_tracker(self):
        from repro.serve.health import SLOTracker

        monitor = HealthMonitor(config=_config(), slo=SLOTracker(deadline_s=1.0))
        monitor.observe_epoch(0, used_lp=True, missed=True, backlog=0, lag_s=2.0)
        monitor.observe_epoch(1, used_lp=False, missed=False, backlog=0)
        assert monitor.slo.window_size == 2
        assert monitor.slo.misses == 1
        assert monitor.slo.to_dict()["lag_observations"] == 1

    def test_monitor_without_tracker_still_works(self):
        monitor = HealthMonitor(config=_config())
        assert monitor.observe_epoch(0, used_lp=True, missed=False, backlog=0) is None
        assert monitor.slo is None
