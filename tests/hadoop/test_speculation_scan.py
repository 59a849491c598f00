"""The speculation scan: one pass, and never repeated for nothing.

``JobTracker.speculation_candidate`` must pick exactly what the two-pass
scan it replaced picked (``reference_candidate`` below), on seeded random
running sets.  And the simulator skips the scan after it found nothing
until the next launch in the same fill pass; that is only sound if a
``None`` answer repeats while no launch happens, which the second test
checks by re-asking the jobtracker every time the skip is taken.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.builder import build_paper_testbed
from repro.hadoop.hdfs import HDFS
from repro.hadoop.jobtracker import JobState, JobTracker
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.hadoop.tasktracker import SimTask, TaskAttempt
from repro.schedulers import DelayScheduler, FifoScheduler
from repro.workload.job import Job
from repro.workload.swim import SwimConfig, synthesize_facebook_day


def reference_candidate(queue, now, max_copies=2, min_elapsed=60.0):
    """The scan as it was: build each task's live-attempt list, then pick."""
    best = None
    best_finish = now
    for job in queue:
        if job.pending:
            continue
        for _key, attempts in job.running.items():
            live = [a for a in attempts if not a.killed]
            if not live or len(live) >= max_copies:
                continue
            primary = live[0]
            if now - primary.start_time < min_elapsed:
                continue
            if primary.finish_time > best_finish:
                best_finish = primary.finish_time
                best = (job, primary.task, primary)
    return best


def random_queue(rng):
    queue = []
    attempt_ids = iter(range(10**6))
    for j in range(rng.randint(1, 5)):
        job = Job(job_id=j, name=f"j{j}", tcp=0.0, num_tasks=1, cpu_seconds_noinput=1.0)
        tasks = [
            SimTask(job_id=j, task_index=i, input_mb=0.0, cpu_seconds=1.0)
            for i in range(rng.randint(1, 8))
        ]
        state = JobState(job=job, tasks=tasks)
        for task in tasks:
            if rng.random() < 0.1:
                state.pending.append(task)
            elif rng.random() < 0.8:
                attempts = []
                for _ in range(rng.randint(1, 3)):
                    attempt = TaskAttempt(
                        attempt_id=next(attempt_ids),
                        task=task,
                        machine_id=0,
                        source_store=None,
                        start_time=rng.choice([0.0, 20.0, 50.0, 90.0, rng.uniform(0, 100)]),
                        read_seconds=rng.choice([0.0, 5.0]),
                        compute_seconds=rng.choice([10.0, 100.0, 200.0, rng.uniform(1, 300)]),
                    )
                    attempt.killed = rng.random() < 0.2
                    attempts.append(attempt)
                state.running[task.key] = attempts
        queue.append(state)
    return queue


@pytest.mark.parametrize("seed", range(40))
def test_single_pass_equals_reference_scan(seed):
    rng = random.Random(seed)
    jt = JobTracker(HDFS(build_paper_testbed(3, seed=seed)))
    jt.queue = random_queue(rng)
    for now in (0.0, 60.0, 100.0, 150.0, 400.0):
        for max_copies in (1, 2, 3):
            for min_elapsed in (0.0, 30.0, 60.0):
                want = reference_candidate(jt.queue, now, max_copies, min_elapsed)
                got = jt.speculation_candidate(now, max_copies, min_elapsed)
                assert got == want


@pytest.mark.parametrize("scheduler_cls", [DelayScheduler, FifoScheduler])
def test_a_none_answer_holds_until_the_next_launch(scheduler_cls):
    workload = synthesize_facebook_day(
        SwimConfig(num_jobs=30, duration_s=3600.0, num_origin_stores=10, seed=3,
                   classes=(("small", 0.7, (1, 10)), ("large", 0.3, (10, 80))))
    )
    sim = HadoopSimulator(
        build_paper_testbed(10, seed=3),
        workload,
        scheduler_cls(),
        SimConfig(speculative=True, placement_seed=3),
    )
    jt = sim.jobtracker
    scan = jt.speculation_candidate
    fill = sim._fill_map_slots
    launch = sim._launch
    state = {"known_none": False, "rechecks": 0, "scans": 0}

    def counting_scan(now, **kw):
        state["scans"] += 1
        found = scan(now, **kw)
        state["known_none"] = found is None
        return found

    def fill_pass(trackers):
        state["known_none"] = False
        fill(trackers)

    def launching(tracker, assignment):
        state["known_none"] = False
        launch(tracker, assignment)

    sim.scheduler.bind(sim)
    select = sim.scheduler.select_task

    def select_and_recheck(tracker, now):
        found = select(tracker, now)
        if found is None and state["known_none"]:
            # the simulator skips the scan here: re-ask to prove it is moot
            state["rechecks"] += 1
            assert scan(now, min_elapsed=sim.config.speculation_min_elapsed) is None
        return found

    jt.speculation_candidate = counting_scan
    sim._fill_map_slots = fill_pass
    sim._launch = launching
    sim.scheduler.select_task = select_and_recheck
    metrics = sim.run().metrics
    assert metrics.speculative_attempts > 0
    assert state["rechecks"] > 0 and state["scans"] > 0  # the skip is taken


def test_fill_pass_rescans_only_after_a_launch():
    """Scan on the first decline, skip the next ones, rescan after a launch."""
    sim = HadoopSimulator(
        build_paper_testbed(5, seed=0),
        synthesize_facebook_day(SwimConfig(num_jobs=1, seed=0)),
        FifoScheduler(),
        SimConfig(speculative=True),
    )
    offered, scans, launches = [], [], []

    def select(tracker, now):
        offered.append(tracker.machine_id)
        return "assignment" if tracker.machine_id == 2 else None

    def scan(now, **kw):
        scans.append(offered[-1])
        return None

    def launch(tracker, assignment):
        launches.append(tracker.machine_id)
        tracker.running[-len(launches)] = assignment  # occupy a slot

    for tracker in sim.trackers:
        tracker.map_slots = 1
    sim.scheduler.select_task = select
    sim.jobtracker.speculation_candidate = scan
    sim._launch = launch
    sim._fill_map_slots(sim.trackers)
    assert offered == [0, 1, 2, 3, 4]
    assert launches == [2]
    assert scans == [0, 3]  # trackers 1 and 4 reuse the known "none"
