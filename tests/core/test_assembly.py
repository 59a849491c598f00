"""Direct unit tests of the vectorised LP assembler."""

import numpy as np
import pytest

from repro.cluster.builder import build_paper_testbed
from repro.core.assembly import FAKE_PRICE_MULTIPLIER, ModelAssembler, fake_unit_costs
from repro.core.co_offline import solve_co_offline
from repro.core.model import SchedulingInput
from repro.core.simple_task import identity_placement, solve_simple_task
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def inp(two_zone_cluster):
    data = [DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0)]
    jobs = [
        Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="pi", tcp=0.0, num_tasks=2, cpu_seconds_noinput=100.0),
    ]
    return SchedulingInput.from_parts(two_zone_cluster, Workload(jobs=jobs, data=data))


class TestColumnLayout:
    def test_column_counts(self, inp):
        a = ModelAssembler(inp, include_xd=True, include_fake=True)
        # 1 data job * 4 machines * 4 stores + 1 free job * 4 machines
        #   + 2 fake columns + 1 data object * 4 stores
        assert a.num_cols == 16 + 4 + 2 + 4

    def test_offsets_disjoint_and_ordered(self, inp):
        a = ModelAssembler(inp, include_xd=True, include_fake=True)
        assert a.off_d == 0
        assert a.off_n == 16
        assert a.off_f == 20
        assert a.off_xd == 22

    def test_cols_d_unique(self, inp):
        a = ModelAssembler(inp, include_xd=True)
        cols = a.cols_d().reshape(-1)
        assert len(set(cols.tolist())) == len(cols)

    def test_simple_model_has_no_xd_columns(self, inp):
        a = ModelAssembler(inp, include_xd=False, fixed_placement=identity_placement(inp))
        assert a.num_cols == 16 + 4

    def test_fixed_placement_required_for_simple(self, inp):
        with pytest.raises(ValueError, match="fixed data placement"):
            ModelAssembler(inp, include_xd=False)


class TestRowRanges:
    def test_families_present_and_contiguous(self, inp):
        a = ModelAssembler(
            inp, include_xd=True, include_fake=True, epoch_bandwidth=True, horizon=600.0
        )
        asm = a.build()
        ranges = a.row_ranges
        expected = [
            "job_coverage", "coupling", "machine_capacity",
            "data_coverage", "store_capacity", "epoch_bandwidth", "fairness",
        ]
        assert list(ranges) == expected
        # contiguous, non-overlapping, covering all of A_ub
        flat = [ranges[k] for k in expected]
        assert flat[0][0] == 0
        for (a0, a1), (b0, _) in zip(flat, flat[1:]):
            assert a1 == b0
        assert flat[-1][1] == asm.a_ub.shape[0]

    def test_row_counts_match_model_shape(self, inp):
        a = ModelAssembler(inp, include_xd=True, horizon=600.0)
        a.build()
        r = a.row_ranges
        assert r["job_coverage"][1] - r["job_coverage"][0] == inp.num_jobs
        assert r["coupling"][1] - r["coupling"][0] == 1 * inp.num_stores
        assert r["machine_capacity"][1] - r["machine_capacity"][0] == inp.num_machines
        assert r["store_capacity"][1] - r["store_capacity"][0] == inp.num_stores
        assert r["fairness"] == (r["fairness"][0], r["fairness"][0])  # empty


class TestFakeCosts:
    def test_fake_dominates_any_real_cost(self, inp):
        fc = fake_unit_costs(inp)
        worst = inp.jm.max(axis=1) + inp.size_mb * (inp.ms_cost.max() + inp.ss_cost.max())
        assert np.all(fc > worst)
        assert np.all(fc >= FAKE_PRICE_MULTIPLIER * 0)  # positive even for free jobs

    def test_fake_positive_for_zero_cost_job(self, two_zone_cluster):
        jobs = [Job(job_id=0, name="noop", tcp=0.0, num_tasks=1, cpu_seconds_noinput=1e-12)]
        inp = SchedulingInput.from_parts(two_zone_cluster, Workload(jobs=jobs, data=[]))
        assert fake_unit_costs(inp)[0] > 0


class TestObjective:
    def test_objective_terms(self, inp):
        a = ModelAssembler(inp, include_xd=True)
        c = a.objective()
        # data-job block: JM + MS * size
        expected0 = inp.jm[0, 0] + inp.ms_cost[0, 0] * inp.size_mb[0]
        assert c[0] == pytest.approx(expected0)
        # input-less block: pure JM
        assert c[a.off_n] == pytest.approx(inp.jm[1, 0])
        # xd block: size * SS from origin (plus no tiebreak by default)
        assert c[a.off_xd + 1] == pytest.approx(
            inp.data_size_mb[0] * inp.ss_cost[inp.origin[0], 1]
        )

    def test_placement_tiebreak_added(self, inp):
        a = ModelAssembler(inp, include_xd=True, placement_tiebreak=1e-5)
        c = a.objective()
        base = ModelAssembler(inp, include_xd=True).objective()
        assert np.allclose(c[a.off_xd:], base[a.off_xd:] + 1e-5)

    def test_negative_tiebreak_rejected(self, inp):
        with pytest.raises(ValueError):
            ModelAssembler(inp, include_xd=True, placement_tiebreak=-1.0)


class TestDecode:
    def test_decode_roundtrip_shapes(self, inp):
        a = ModelAssembler(inp, include_xd=True, include_fake=True)
        a.build()
        x = np.zeros(a.num_cols)
        x[0] = 0.25
        x[a.off_f] = 0.75
        sol = a.decode(x, objective=1.23, model="test")
        assert sol.xt_data.shape == (2, 4, 4)
        assert sol.xt_data[0, 0, 0] == 0.25
        assert sol.fake[0] == 0.75
        assert sol.objective == 1.23

    def test_decode_clips_noise(self, inp):
        a = ModelAssembler(inp, include_xd=True, include_fake=True)
        a.build()
        x = np.full(a.num_cols, -1e-12)
        sol = a.decode(x, objective=0.0, model="test")
        assert np.all(sol.xt_data >= 0)
        assert np.all(sol.xd >= 0)


class TestEmptyWorkload:
    """A workload with no jobs assembles and solves to objective 0."""

    DATA = [
        DataObject(data_id=0, name="d", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="e", size_mb=64.0, origin_store=3),
    ]

    def _input(self, data):
        workload = Workload(jobs=[], data=data)
        return SchedulingInput.from_parts(build_paper_testbed(4, seed=0), workload)

    def test_co_offline_without_data(self):
        sol = solve_co_offline(self._input([]))
        assert sol.objective == 0.0
        assert sol.xt_data.shape == (0, 4, 4)
        assert sol.xd.shape == (0, 4)

    def test_co_offline_with_data(self):
        sol = solve_co_offline(self._input(self.DATA))
        assert sol.objective == 0.0
        # each object still needs a full placement; its origin store is free
        assert np.allclose(sol.xd.sum(axis=1), 1.0)

    def test_simple_task(self):
        inp = self._input(self.DATA)
        sol = solve_simple_task(inp)
        assert sol.objective == 0.0
        assert np.array_equal(sol.xd, identity_placement(inp))
