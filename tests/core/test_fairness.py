"""Tests for the fair-share LP extension."""

import pytest

from repro.core.co_online import solve_co_online
from repro.core.fairness import (
    FairShareConfig,
    fairness_rows,
    fulfillment_ratios,
    jains_index,
    pool_demands,
    pool_scheduled_cpu,
)
from repro.core.model import SchedulingInput
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def contended_input(two_zone_cluster):
    """Two pools competing for a too-small epoch: cheap pool vs pricey pool."""
    data = [
        DataObject(data_id=0, name="a", size_mb=640.0, origin_store=2),
        DataObject(data_id=1, name="b", size_mb=640.0, origin_store=3),
    ]
    jobs = [
        Job(job_id=0, name="alpha-job", tcp=1.0, data_ids=[0], num_tasks=10, pool="alpha"),
        Job(job_id=1, name="beta-job", tcp=1.0, data_ids=[1], num_tasks=10, pool="beta"),
        Job(job_id=2, name="alpha-pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=200.0, pool="alpha"),
    ]
    return SchedulingInput.from_parts(two_zone_cluster, Workload(jobs=jobs, data=data))


class TestConfig:
    def test_fulfillment_validated(self):
        with pytest.raises(ValueError):
            FairShareConfig(fulfillment=0.0)
        with pytest.raises(ValueError):
            FairShareConfig(fulfillment=1.5)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            FairShareConfig(weights={"a": -1.0})

    def test_default_weight_one(self):
        cfg = FairShareConfig(weights={"a": 3.0})
        assert cfg.weight_of("a") == 3.0
        assert cfg.weight_of("unknown") == 1.0


class TestRows:
    def test_pool_demands(self, contended_input):
        d = pool_demands(contended_input)
        assert set(d) == {"alpha", "beta"}
        ids, demand = d["alpha"]
        assert set(ids) == {0, 2}
        assert demand == pytest.approx(640.0 + 200.0)

    def test_rows_capped_by_demand(self, contended_input):
        rows = fairness_rows(contended_input, epoch_length=1e6, config=FairShareConfig(fulfillment=1.0))
        # epoch huge: each pool's guarantee equals its own demand
        rhs = {tuple(sorted(ids)): cpu for ids, cpu in rows}
        assert rhs[(0, 2)] == pytest.approx(840.0)
        assert rhs[(1,)] == pytest.approx(640.0)

    def test_rows_capped_by_share(self, contended_input):
        e = 10.0  # total capacity = 14 ecu * 10 = 140 cpu-s; share = 70 each
        rows = fairness_rows(contended_input, e, FairShareConfig(fulfillment=1.0))
        for ids, cpu in rows:
            assert cpu <= 70.0 + 1e-9

    def test_epoch_validation(self, contended_input):
        with pytest.raises(ValueError):
            fairness_rows(contended_input, 0.0, FairShareConfig())


class TestSolveWithFairness:
    def test_guarantees_met(self, contended_input):
        e = 50.0  # capacity 700 cpu-s vs demand 1480: contention
        cfg = FairShareConfig(fulfillment=0.9)
        sol = solve_co_online(
            contended_input,
            epoch_length=e, enforce_bandwidth=False,
            fairness=cfg,
        )
        rows = fairness_rows(contended_input, e, cfg)
        scheduled = pool_scheduled_cpu(contended_input, sol)
        demands = pool_demands(contended_input)
        pool_of = {tuple(sorted(ids)): p for p, (ids, _) in demands.items()}
        for ids, min_cpu in rows:
            pool = pool_of[tuple(sorted(ids))]
            assert scheduled[pool] >= min_cpu - 1e-6

    def test_fairness_improves_jains_index(self, contended_input):
        """Under contention fairness raises the fulfilment balance."""
        e = 50.0
        base = solve_co_online(
            contended_input, epoch_length=e, enforce_bandwidth=False
        )
        fair = solve_co_online(
            contended_input,
            epoch_length=e, enforce_bandwidth=False,
            fairness=FairShareConfig(fulfillment=0.95),
        )
        j_base = jains_index(list(fulfillment_ratios(contended_input, base).values()))
        j_fair = jains_index(list(fulfillment_ratios(contended_input, fair).values()))
        assert j_fair >= j_base - 1e-9

    def test_fairness_costs_at_least_as_much(self, contended_input):
        """Adding constraints can only raise the optimal objective."""
        e = 50.0
        base = solve_co_online(
            contended_input, epoch_length=e, enforce_bandwidth=False
        )
        fair = solve_co_online(
            contended_input,
            epoch_length=e, enforce_bandwidth=False,
            fairness=FairShareConfig(fulfillment=0.95),
        )
        assert fair.objective >= base.objective - 1e-9

    def test_no_contention_no_effect(self, contended_input):
        e = 1e5  # ample: everything schedules either way
        base = solve_co_online(
            contended_input, epoch_length=e, enforce_bandwidth=False
        )
        fair = solve_co_online(
            contended_input,
            epoch_length=e, enforce_bandwidth=False,
            fairness=FairShareConfig(fulfillment=1.0),
        )
        assert fair.objective == pytest.approx(base.objective, rel=1e-6)


class TestJainsIndex:
    def test_equal_allocation_is_one(self):
        assert jains_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_dominator_is_one_over_n(self):
        assert jains_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jains_index([]) == 1.0
        assert jains_index([0.0, 0.0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jains_index([-1.0])

    def test_scale_invariant(self):
        a = jains_index([1.0, 2.0, 3.0])
        b = jains_index([10.0, 20.0, 30.0])
        assert a == pytest.approx(b)
