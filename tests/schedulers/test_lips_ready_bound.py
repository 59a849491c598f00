"""LiPS's plan ready-time bound must not change any slot-offer outcome.

``LipsScheduler.select_task`` declines at once while ``now`` is below a
machine's ready bound (a lower bound on its plan entries' earliest_start),
instead of scanning a plan in which every entry's data is still in flight.
These seeded tests drive the real scheduler and a reference full-scan
``select_task`` (the scan without any bound) through the same random plans,
earliest-start values, offer times, store-offline toggles and machine
failures, and require the same assignment sequence and the same plan order
after every step.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.hadoop.jobtracker import JobState
from repro.hadoop.tasktracker import SimTask
from repro.schedulers import LipsScheduler
from repro.schedulers.lips import _PlanEntry
from repro.workload.job import Job

MACHINES = 3
STORES = 4


class _Sim:
    """The slice of the simulator ``select_task`` reads: store liveness."""

    def __init__(self) -> None:
        self.offline = set()

    def store_online(self, store_id: int) -> bool:
        return store_id not in self.offline


class _World:
    """One copy of the plan state: jobs, their pending tasks, the plans."""

    def __init__(self, jobs: int) -> None:
        self.sim = _Sim()
        self.jobs = [
            JobState(
                job=Job(job_id=j, name=f"j{j}", tcp=0.0, num_tasks=1,
                        cpu_seconds_noinput=1.0),
                tasks=[],
            )
            for j in range(jobs)
        ]

    def new_entry(self, job_id: int, ready: float, store) -> _PlanEntry:
        job = self.jobs[job_id]
        task = SimTask(
            job_id=job_id, task_index=len(job.tasks), input_mb=0.0,
            cpu_seconds=1.0, earliest_start=ready,
        )
        job.tasks.append(task)
        job.requeue(task)  # through JobState, which keeps ``task.queued``
        return _PlanEntry(job, task, store)

    def launch(self, assignment) -> tuple:
        if assignment is None:
            return None
        assignment.job.take_pending(assignment.task)  # what the simulator does
        return (assignment.task.key, assignment.source_store)


def reference_select(world: _World, plan: deque, now: float):
    """The full scan with no ready bound (LiPS's pre-bound select_task)."""
    for _ in range(len(plan)):
        entry = plan[0]
        task = entry.task
        if task.key in entry.job.completed or task not in entry.job.pending:
            plan.popleft()
            continue
        if task.earliest_start > now or (
            entry.source_store is not None
            and not world.sim.store_online(entry.source_store)
        ):
            plan.rotate(-1)
            continue
        plan.popleft()
        return SimpleNamespace(job=entry.job, task=task, source_store=entry.source_store)
    return None


def order(plan: deque) -> list:
    return [entry.task.key for entry in plan]


@pytest.mark.parametrize("seed", range(40))
def test_ready_bound_matches_full_scan(seed):
    rng = random.Random(seed)
    jobs = rng.randint(1, 4)
    fast, ref = _World(jobs), _World(jobs)
    sched = LipsScheduler()
    sched.sim = fast.sim
    sched.plans = {m: deque() for m in range(MACHINES)}
    sched._ready_at = {m: float("inf") for m in range(MACHINES)}
    ref_plans = {m: deque() for m in range(MACHINES)}
    trackers = [SimpleNamespace(machine_id=m) for m in range(MACHINES)]
    now = 0.0
    shortcuts = 0
    for _ in range(300):
        action = rng.random()
        if action < 0.3:  # an epoch plans a task: data lands at `ready`
            machine = rng.randrange(MACHINES)
            job_id = rng.randrange(jobs)
            ready = now + (rng.uniform(0.0, 200.0) if rng.random() < 0.7 else 0.0)
            store = rng.choice([None] + list(range(STORES)))
            sched._enqueue(machine, fast.new_entry(job_id, ready, store))
            ref_plans[machine].append(ref.new_entry(job_id, ready, store))
        elif action < 0.4:  # a store goes down or comes back
            store = rng.randrange(STORES)
            for world in (fast, ref):
                world.sim.offline ^= {store}
        elif action < 0.42:  # a machine fails: its plan is dropped
            machine = rng.randrange(MACHINES)
            sched.on_machine_failed(machine, now)
            ref_plans[machine].clear()
        else:  # the clock advances and a slot is offered
            now += rng.choice([0.0, rng.expovariate(1 / 20.0)])
            machine = rng.randrange(MACHINES)
            plan = sched.plans[machine]
            shortcuts += bool(plan) and now < sched._ready_at[machine]
            got = fast.launch(sched.select_task(trackers[machine], now))
            want = ref.launch(reference_select(ref, ref_plans[machine], now))
            assert got == want
        for m in range(MACHINES):
            assert order(sched.plans[m]) == order(ref_plans[m])
        assert sched._planned_machines == {m for m in range(MACHINES) if ref_plans[m]}
    assert shortcuts > 0  # the bound actually short-circuited some offers


def test_offline_store_keeps_bound_low():
    # an entry skipped only for an offline store must stay reachable the
    # moment its store returns, at the same offer time
    world = _World(1)
    sched = LipsScheduler()
    sched.sim = world.sim
    sched.plans = {0: deque()}
    sched._ready_at = {0: float("inf")}
    tracker = SimpleNamespace(machine_id=0)
    sched._enqueue(0, world.new_entry(0, 10.0, 1))
    sched._enqueue(0, world.new_entry(0, 50.0, None))
    world.sim.offline.add(1)
    assert sched.select_task(tracker, 20.0) is None
    assert sched._ready_at[0] <= 10.0
    world.sim.offline.clear()
    assignment = sched.select_task(tracker, 20.0)
    assert assignment is not None and assignment.task.key == (0, 0)


def test_fruitless_scan_raises_bound_to_earliest_entry():
    world = _World(1)
    sched = LipsScheduler()
    sched.sim = world.sim
    sched.plans = {0: deque()}
    sched._ready_at = {0: float("inf")}
    tracker = SimpleNamespace(machine_id=0)
    sched._enqueue(0, world.new_entry(0, 30.0, None))
    sched._enqueue(0, world.new_entry(0, 0.0, None))
    sched._enqueue(0, world.new_entry(0, 70.0, None))
    assert sched._ready_at[0] == 0.0  # lowered on append
    assert sched.select_task(tracker, 5.0).task.key == (0, 1)
    assert order(sched.plans[0]) == [(0, 2), (0, 0)]  # (0, 0) rotated past
    assert sched.select_task(tracker, 5.0) is None  # full scan finds nothing
    assert sched._ready_at[0] == 30.0
    assert order(sched.plans[0]) == [(0, 2), (0, 0)]  # and rotates back
    assert sched.select_task(tracker, 30.0).task.key == (0, 0)
