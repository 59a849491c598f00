"""Identity semantics of tasks/jobs and the incomplete-only job queue.

The simulator's per-offer bookkeeping relies on three facts checked here:
``SimTask``/``JobState`` compare by identity, ``JobTracker.queue`` holds
exactly the incomplete jobs in submit order, and the simulator's running-map
counter equals a brute-force count over the trackers.
"""

import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.failures import FailurePlan
from repro.hadoop.hdfs import HDFS
from repro.hadoop.jobtracker import JobState, JobTracker
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.resilience import ChaosPlan, ReadFaultEvent
from repro.schedulers import DelayScheduler, FifoScheduler, LipsScheduler
from repro.workload.apps import make_job
from repro.workload.job import DataObject, Job, Workload


class CheckedSimulator(HadoopSimulator):
    """Re-derives the O(1) bookkeeping by brute force at every heartbeat and
    task completion."""

    checks = 0

    def _check(self) -> None:
        jt = self.jobtracker
        jobs = list(jt.jobs.values())  # submit order
        assert [id(j) for j in jt.queue] == [id(j) for j in jobs if not j.is_complete]
        assert jt.all_complete() == all(j.is_complete for j in jobs)
        finishes = [j.finish_time for j in jobs if j.finish_time is not None]
        assert jt.makespan() == max(finishes, default=0.0)
        assert self._running_maps == sum(len(t.running) for t in self.trackers)
        self.checks += 1

    def _heartbeat(self) -> None:
        self._check()
        super()._heartbeat()

    def _complete(self, tracker, attempt, job) -> None:
        super()._complete(tracker, attempt, job)
        self._check()


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
    for i in range(4):
        b.add_machine(
            f"m{i}", ecu=2.0, cpu_cost=1e-5, zone="za" if i < 2 else "zb",
            map_slots=2,
        )
    return b.build()


def mixed_workload():
    data = [
        DataObject(data_id=0, name="d0", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="d1", size_mb=320.0, origin_store=2),
    ]
    jobs = [
        Job(job_id=0, name="scan", tcp=1.0, data_ids=[0], num_tasks=10),
        make_job("wordcount", 1, data_ids=[1], num_tasks=5),
        Job(job_id=2, name="pi", tcp=0.0, num_tasks=6, cpu_seconds_noinput=600.0,
            arrival_time=30.0),
    ]
    return Workload(jobs=jobs, data=data)


def pi_job(job_id=0, tasks=2):
    return Job(
        job_id=job_id, name=f"pi{job_id}", tcp=0.0, num_tasks=tasks,
        cpu_seconds_noinput=10.0 * tasks,
    )


def finish_all(jt, state, tasks, tracker, now):
    for task in tasks:
        state.take_pending(task)
        attempt = jt.new_attempt(state, task, tracker, None, now, 0.0, 1.0)
        jt.finish_attempt(state, attempt, now)


@pytest.fixture
def tracker_env(cluster):
    hdfs = HDFS(cluster, replication=1, seed=0)
    return JobTracker(hdfs), TaskTracker(cluster.machines[0])


class TestIdentity:
    def test_field_equal_tasks_are_distinct_pending_members(self):
        a = SimTask(job_id=0, task_index=0, input_mb=0.0, cpu_seconds=5.0)
        b = SimTask(job_id=0, task_index=0, input_mb=0.0, cpu_seconds=5.0)
        assert a != b and a.key == b.key
        state = JobState(job=pi_job(), tasks=[a, b], pending=[a, b])
        state.take_pending(b)  # value equality would remove `a`, the first match
        assert len(state.pending) == 1 and state.pending[0] is a
        assert b not in state.pending and a in state.pending

    def test_field_equal_jobs_are_distinct(self):
        job = pi_job()
        assert JobState(job=job, tasks=[]) != JobState(job=job, tasks=[])


class TestQueue:
    def test_job_leaves_queue_when_complete(self, cluster, tracker_env):
        jt, tracker = tracker_env
        w = Workload(jobs=[pi_job(0), pi_job(1)], data=[])
        first = jt.submit(w.jobs[0], w, now=0.0)
        second = jt.submit(w.jobs[1], w, now=1.0)
        assert jt.queue == [first, second]
        finish_all(jt, first, list(first.pending), tracker, now=5.0)
        assert jt.queue == [second] and not jt.all_complete()
        finish_all(jt, second, list(second.pending), tracker, now=9.0)
        assert jt.queue == [] and jt.all_complete()
        assert jt.makespan() == 9.0  # read from jobs, not the drained queue

    def test_job_without_blocks_never_queues(self, cluster):
        # an input job over empty data expands to no tasks: it is complete
        # at submit and must not hold the run open
        data = [DataObject(data_id=0, name="empty", size_mb=0.0, origin_store=0)]
        w = Workload(jobs=[Job(job_id=0, name="e", tcp=1.0, data_ids=[0])], data=data)
        hdfs = HDFS(cluster, replication=1, seed=0)
        hdfs.populate(w.data)
        jt = JobTracker(hdfs)
        state = jt.submit(w.jobs[0], w, now=0.0)
        assert state.is_complete and jt.queue == [] and jt.all_complete()

    def test_requeued_job_leaves_queue(self, cluster):
        plan = FailurePlan()
        plan.add(0, fail_time=10.0)
        sim = CheckedSimulator(
            cluster, mixed_workload(), FifoScheduler(),
            SimConfig(placement_seed=0, speculative=False), failures=plan,
        )
        res = sim.run()
        assert res.metrics.failed_attempts > 0  # machine 0's tasks re-queued
        assert sim.jobtracker.queue == []
        assert all(j.finish_time is not None for j in sim.jobtracker.jobs.values())
        assert sim.checks > 0


@pytest.mark.parametrize(
    "scheduler, config, failures, chaos",
    [
        (FifoScheduler, {}, None, None),
        (DelayScheduler, {"speculative": True}, None, None),
        (LipsScheduler, {}, [(0, 620.0, 800.0)], None),
        (FifoScheduler, {"replication": 1, "populate": "origin"}, None,
         ChaosPlan(read_faults=[ReadFaultEvent(store_id=0, start=0.0, end=150.0)])),
    ],
    ids=["fifo", "delay-speculative", "lips-failure", "fifo-chaos"],
)
def test_bookkeeping_matches_brute_force(cluster, scheduler, config, failures, chaos):
    plan = None
    if failures is not None:
        plan = FailurePlan()
        for machine, fail, recover in failures:
            plan.add(machine, fail_time=fail, recover_time=recover)
    config = {"placement_seed": 0, "speculative": False, **config}
    sim = CheckedSimulator(
        cluster, mixed_workload(), scheduler(), SimConfig(**config),
        failures=plan, chaos=chaos,
    )
    res = sim.run()
    assert sim.jobtracker.queue == [] and sim._running_maps == 0
    assert res.metrics.makespan == max(j.finish_time for j in sim.jobtracker.jobs.values())
    assert sim.checks > 0
