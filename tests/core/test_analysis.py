"""Tests for LP duals and capacity shadow prices."""

import numpy as np
import pytest

from repro.core.analysis import capacity_shadow_prices
from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.lp import HighsBackend
from repro.workload.job import DataObject, Job, Workload
from tests.lp.dense import dense_lp


class TestBackendDuals:
    def test_duals_exported(self):
        # x <= 2, x >= 1 (written -x <= -1); -x pushes x to its cap
        lp = dense_lp([-1.0], [[1.0], [-1.0]], [2.0, -1.0])
        res = HighsBackend().solve_assembled(lp)
        assert res.dual_ub is not None
        # the cap binds: relaxing it by 1 improves (lowers) the objective by 1
        assert res.dual_ub[0] == pytest.approx(-1.0)

    def test_slack_row_zero_dual(self):
        lp = dense_lp([1.0], [[1.0]], [100.0], bounds=[(0.0, 1.0)])  # never binding
        res = HighsBackend().solve_assembled(lp)
        assert res.dual_ub[0] == pytest.approx(0.0)


@pytest.fixture
def tight_input(tiny_cluster):
    """Demand just above the cheap machine's capacity: it must bottleneck."""
    data = [DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0)]
    # cheap machine: 4 ecu * 10000 s = 40000 cpu-s capacity; demand 48000
    jobs = [Job(job_id=0, name="big", tcp=75.0, data_ids=[0], num_tasks=16)]
    return SchedulingInput.from_parts(tiny_cluster, Workload(jobs=jobs, data=data))


class TestShadowPrices:
    def test_bottleneck_machine_priced(self, tight_input):
        sp = capacity_shadow_prices(tight_input)
        prices = tight_input.cluster.cpu_cost_vector()
        cheap = int(prices.argmin())
        assert cheap in sp.bottleneck_machines()
        # extra capacity on the cheap machine saves the price *difference*
        expected = prices.max() - prices.min()
        assert sp.machine_cpu[cheap] == pytest.approx(expected, rel=1e-6)

    def test_slack_machine_unpriced(self, small_input):
        """With ample capacity everywhere no machine carries a price."""
        sp = capacity_shadow_prices(small_input)
        assert len(sp.bottleneck_machines()) == 0
        assert np.all(sp.machine_cpu == 0.0)

    def test_prices_nonnegative(self, tight_input):
        sp = capacity_shadow_prices(tight_input)
        assert np.all(sp.machine_cpu >= 0.0)
        assert np.all(sp.store_mb >= 0.0)

    def test_perturbation_matches_dual(self, tight_input):
        """First-order check: +delta capacity => objective -= price*delta."""
        sp = capacity_shadow_prices(tight_input)
        prices = tight_input.cluster.cpu_cost_vector()
        cheap = int(prices.argmin())
        price = sp.machine_cpu[cheap]
        delta = 100.0  # cpu-seconds

        # re-solve with the cheap machine's uptime extended accordingly
        machine = tight_input.cluster.machines[cheap]
        old_uptime = machine.uptime
        machine.uptime = old_uptime + delta / machine.ecu
        try:
            bumped = SchedulingInput.from_parts(tight_input.cluster, tight_input.workload)
            new_obj = solve_co_offline(bumped).objective
        finally:
            machine.uptime = old_uptime
        assert new_obj == pytest.approx(sp.objective - price * delta, rel=1e-6)

    def test_store_bottleneck_priced(self, two_zone_cluster):
        """A twice-read object wants to move to the cheap zone; zero
        cheap-zone capacity makes every MB there worth one saved read."""
        data = [DataObject(data_id=0, name="shared", size_mb=500.0, origin_store=0)]
        jobs = [
            Job(job_id=0, name="ja", tcp=1.0, data_ids=[0], num_tasks=8),
            Job(job_id=1, name="jb", tcp=1.0, data_ids=[0], num_tasks=8),
        ]
        inp = SchedulingInput.from_parts(
            two_zone_cluster, Workload(jobs=jobs, data=data)
        )
        caps = np.array([1000.0, 1000.0, 0.0, 0.0])  # cheap zone full
        sp = capacity_shadow_prices(inp, store_capacity=caps)
        # an extra MB in the cheap zone converts one of the two cross-zone
        # runtime reads into a (same-priced) one-off move: saves one read
        cross_zone = float(inp.ms_cost.max())
        assert sp.store_mb[2] == pytest.approx(cross_zone, rel=1e-6)
        assert sp.store_mb[3] == pytest.approx(cross_zone, rel=1e-6)

    def test_requires_dual_backend(self, small_input):
        class NoDualBackend(HighsBackend):
            name = "no-duals"

            def solve_assembled(self, asm):
                res = super().solve_assembled(asm)
                res.dual_ub = None
                return res

        with pytest.raises(RuntimeError, match="no duals"):
            capacity_shadow_prices(small_input, backend=NoDualBackend())
