"""Determinism: identical seeds yield identical runs across the stack."""

import numpy as np
import pytest

from repro.cluster.builder import build_paper_testbed
from repro.core import SchedulingInput, solve_co_offline
from repro.core.epoch import EpochController
from repro.experiments.fig5_simulated_savings import run as fig5_run
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import DelayScheduler, FifoScheduler, LipsScheduler
from repro.workload.apps import table4_jobs
from repro.workload.swim import SwimConfig, synthesize_facebook_day


@pytest.mark.parametrize("scheduler_cls", [FifoScheduler, DelayScheduler])
def test_simulator_runs_reproducible(scheduler_cls):
    cluster = build_paper_testbed(8, c1_medium_fraction=0.25, seed=3)
    w = table4_jobs()

    def once():
        sim = HadoopSimulator(cluster, w, scheduler_cls(), SimConfig(placement_seed=9))
        m = sim.run().metrics
        return (m.total_cost, m.makespan, m.data_locality, m.tasks_run)

    assert once() == once()


def test_lips_simulator_reproducible():
    cluster = build_paper_testbed(8, c1_medium_fraction=0.25, seed=3)
    w = table4_jobs()

    def once():
        sim = HadoopSimulator(
            cluster, w, LipsScheduler(epoch_length=1200.0),
            SimConfig(placement_seed=9, speculative=False),
        )
        m = sim.run().metrics
        return (m.total_cost, m.makespan, m.moved_mb)

    assert once() == once()


def test_lp_solution_reproducible():
    cluster = build_paper_testbed(8, seed=3, uptime=50_000.0)
    w = table4_jobs(origin_stores=list(range(8)))
    inp = SchedulingInput.from_parts(cluster, w)
    a = solve_co_offline(inp)
    b = solve_co_offline(inp)
    assert a.objective == b.objective
    assert np.array_equal(a.xt_data, b.xt_data)
    assert np.array_equal(a.xd, b.xd)


def test_epoch_controller_reproducible():
    cluster = build_paper_testbed(6, c1_medium_fraction=0.5, seed=2)
    w = synthesize_facebook_day(
        SwimConfig(num_jobs=10, duration_s=1800.0, num_origin_stores=6, seed=4,
                   classes=(("interactive", 0.7, (1, 4)), ("medium", 0.3, (4, 10)),))
    )
    a = EpochController(cluster, epoch_length=600.0).run(w)
    b = EpochController(cluster, epoch_length=600.0).run(w)
    assert a.total_cost == b.total_cost
    assert a.makespan == b.makespan


def test_fig5_reproducible():
    a = fig5_run(sizes=((100, 5, 5),), seeds=(0,))
    b = fig5_run(sizes=((100, 5, 5),), seeds=(0,))
    assert a.reductions == b.reductions
