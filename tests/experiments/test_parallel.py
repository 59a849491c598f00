"""The process-pool sweep path must reproduce the serial path exactly."""

import numpy as np
import pytest

from repro.experiments import fig5_simulated_savings as fig5
from repro.experiments import fig8_epoch_tradeoff as fig8
from repro.experiments.common import LipsFactory, compare_schedulers, scheduler_lineup
from repro.experiments.parallel import resolve_workers, run_tasks


class TestResolveWorkers:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert resolve_workers(None) == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 0

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        assert resolve_workers(None) == 0

    def test_negative_clamped(self):
        assert resolve_workers(-2) == 0


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
