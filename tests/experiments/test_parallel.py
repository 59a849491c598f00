"""The process-pool sweep path must reproduce the serial path exactly."""

import numpy as np
import pytest

from repro.experiments import fig5_simulated_savings as fig5
from repro.experiments import fig8_epoch_tradeoff as fig8
from repro.experiments.common import LipsFactory, compare_schedulers, scheduler_lineup
from repro.experiments.parallel import pool_size, run_tasks


def _square(seeded_task):
    base, seed = seeded_task
    return base * base + seed


class TestRunTasks:
    def test_serial_and_pool_agree(self):
        tasks = [(i, 100 + i) for i in range(6)]
        assert run_tasks(_square, tasks, workers=0) == run_tasks(
            _square, tasks, workers=2
        )

    def test_order_preserved(self):
        tasks = [(i, 0) for i in (5, 1, 4, 2)]
        assert run_tasks(_square, tasks, workers=2) == [25, 1, 16, 4]

    def test_single_task_stays_in_process(self):
        assert run_tasks(_square, [(3, 1)], workers=8) == [10]


class TestPoolSize:
    def test_a_worker_per_cpu(self):
        import os

        assert pool_size() == (os.cpu_count() or 1)

    def test_traced_run_stays_in_process(self):
        from repro.obs.trace import Tracer, use_tracer

        with Tracer.tap_only() as tracer, use_tracer(tracer):
            assert pool_size() == 0

    def test_metered_run_stays_in_process(self):
        from repro.obs.registry import MetricsRegistry, use_registry

        with use_registry(MetricsRegistry()):
            assert pool_size() == 0

    def test_fig6_sweep_stays_in_process(self, monkeypatch):
        from repro.experiments import fig6_cost_reduction as fig6

        seen = []
        monkeypatch.setattr(fig6, "run", lambda **kw: seen.append(kw))
        fig6.run_at(full=True)
        assert seen == [{}]


class TestLipsFactory:
    def test_picklable(self):
        import pickle

        factory = LipsFactory(epoch_length=300.0)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        assert clone().epoch_length == 300.0

    def test_lineup_uses_factory(self):
        lineup = scheduler_lineup(450.0)
        factory, speculative = lineup["lips"]
        assert isinstance(factory, LipsFactory)
        assert factory.epoch_length == 450.0
        assert speculative is False


class TestParallelEqualsSerial:
    def test_fig5_grid(self):
        sizes = ((40, 3, 3), (60, 4, 4))
        serial = fig5.run(sizes=sizes, seeds=(0, 1), workers=0)
        parallel = fig5.run(sizes=sizes, seeds=(0, 1), workers=2)
        np.testing.assert_array_equal(serial.lp_costs, parallel.lp_costs)
        np.testing.assert_array_equal(serial.default_costs, parallel.default_costs)
        np.testing.assert_array_equal(serial.reductions, parallel.reductions)

    def test_fig8_epochs(self):
        epochs = (300.0, 600.0)
        serial = fig8.run(epochs=epochs, workers=0)
        parallel = fig8.run(epochs=epochs, workers=2)
        assert serial.costs == parallel.costs
        assert serial.exec_times == parallel.exec_times

    def test_compare_schedulers(self, two_zone_cluster, small_workload):
        kwargs = dict(epoch_length=400.0, placement_seed=7)
        serial = compare_schedulers(
            two_zone_cluster, small_workload, workers=0, **kwargs
        )
        parallel = compare_schedulers(
            two_zone_cluster, small_workload, workers=2, **kwargs
        )
        assert set(serial.metrics) == set(parallel.metrics)
        for name in serial.metrics:
            assert serial.cost(name) == pytest.approx(parallel.cost(name), rel=0, abs=0)
            assert serial.makespan(name) == parallel.makespan(name)
