"""Unit tests for SchedulingInput and workload levelling."""

import numpy as np
import pytest

from repro.core.model import SchedulingInput, split_multi_object_jobs
from repro.workload.job import DataObject, Job, Workload


def test_from_parts_shapes(small_input):
    inp = small_input
    assert inp.jd.shape == (3, 2)
    assert inp.jm.shape == (3, 4)
    assert inp.ms_cost.shape == (4, 4)
    assert inp.ss_cost.shape == (4, 4)
    assert inp.bandwidth.shape == (4, 4)


def test_jm_is_cpu_times_price(small_input):
    inp = small_input
    expected = np.outer(inp.cpu, inp.cluster.cpu_cost_vector())
    assert np.allclose(inp.jm, expected)


def test_job_data_and_sizes(small_input):
    inp = small_input
    assert inp.job_data.tolist() == [0, 1, -1]
    assert inp.size_mb.tolist() == [640.0, 384.0, 0.0]


def test_cpu_vector(small_input):
    inp = small_input
    assert inp.cpu[0] == pytest.approx(640.0 * 20.0 / 64.0)
    assert inp.cpu[2] == pytest.approx(400.0)


def test_job_partitions(small_input):
    inp = small_input
    assert inp.jobs_with_input().tolist() == [0, 1]
    assert inp.jobs_without_input().tolist() == [2]


def test_machine_capacity_horizon_override(small_input):
    inp = small_input
    default = inp.machine_capacity()
    epoch = inp.machine_capacity(100.0)
    assert np.allclose(default, inp.tp * inp.uptime)
    assert np.allclose(epoch, inp.tp * 100.0)


def test_multi_object_job_rejected(two_zone_cluster):
    data = [
        DataObject(data_id=0, name="d0", size_mb=64.0, origin_store=0),
        DataObject(data_id=1, name="d1", size_mb=64.0, origin_store=1),
    ]
    jobs = [Job(job_id=0, name="multi", tcp=1.0, data_ids=[0, 1])]
    with pytest.raises(ValueError, match="split_multi_object_jobs"):
        SchedulingInput.from_parts(two_zone_cluster, Workload(jobs=jobs, data=data))


def test_matrix_shape_validation(two_zone_cluster, small_workload):
    with pytest.raises(ValueError, match="ms_cost"):
        SchedulingInput.from_parts(
            two_zone_cluster, small_workload, ms_cost=np.zeros((2, 2))
        )


class TestSplitMultiObjectJobs:
    def _workload(self):
        data = [
            DataObject(data_id=0, name="big", size_mb=960.0, origin_store=0),
            DataObject(data_id=1, name="small", size_mb=320.0, origin_store=1),
        ]
        jobs = [
            Job(job_id=0, name="multi", tcp=1.0, data_ids=[0, 1], num_tasks=20),
            Job(job_id=1, name="single", tcp=2.0, data_ids=[1], num_tasks=4),
        ]
        return Workload(jobs=jobs, data=data)

    def test_split_preserves_total_work(self):
        w = self._workload()
        out = split_multi_object_jobs(w)
        assert out.num_jobs == 3
        assert out.total_cpu_seconds() == pytest.approx(w.total_cpu_seconds())

    def test_task_counts_proportional(self):
        out = split_multi_object_jobs(self._workload())
        multi_subs = [j for j in out.jobs if j.name.startswith("multi")]
        tasks = {j.data_ids[0]: j.num_tasks for j in multi_subs}
        assert tasks[0] == 15  # 960/1280 of 20
        assert tasks[1] == 5

    def test_single_object_jobs_untouched(self):
        out = split_multi_object_jobs(self._workload())
        single = [j for j in out.jobs if j.name == "single"][0]
        assert single.num_tasks == 4
        assert single.data_ids == [1]

    def test_result_accepted_by_from_parts(self, two_zone_cluster):
        out = split_multi_object_jobs(self._workload())
        inp = SchedulingInput.from_parts(two_zone_cluster, out)
        assert inp.num_jobs == 3

    def test_split_keeps_read_fraction(self):
        w = self._workload()
        w.jobs[0].read_fraction = 0.25
        w.jobs[1].read_fraction = 0.5
        out = split_multi_object_jobs(w)
        fractions = {j.name: j.read_fraction for j in out.jobs}
        assert fractions == {"multi#d0": 0.25, "multi#d1": 0.25, "single": 0.5}
        assert sum(j.total_cpu_seconds(out.data) for j in out.jobs) == pytest.approx(
            sum(j.total_cpu_seconds(w.data) for j in w.jobs)
        )
