"""Map-cache oracle: indexed locality lookups equal a full pending scan.

``best_task_for`` answers from the job's per-host and per-zone indexes of
pending maps.  ``reference_best_task_for`` below is the full scan it
replaced, kept here as the oracle: over seeded random sequences of
launches, re-queues, machine failures and recoveries, ``earliest_start``
backoffs and input-less jobs, both must return the same
``(task, store, level)`` for every tracker, job and ``max_level`` at every
step.
"""

from __future__ import annotations

import random

import pytest

import repro.hadoop.jobtracker as jobtracker
from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.hadoop.tasktracker import SimTask
from repro.schedulers import DelayScheduler, LipsScheduler
from repro.schedulers.fifo import ANY, NODE, ZONE, best_task_for
from repro.workload.job import DataObject, Job, Workload

LEVELS = (NODE, ZONE, ANY)


def reference_locality(sim, tracker, store_id):
    """Locality level of reading ``store_id`` from ``tracker``."""
    store = sim.cluster.stores[store_id]
    if store.colocated_machine == tracker.machine_id:
        return NODE
    if store.zone == tracker.machine.zone:
        return ZONE
    return ANY


def reference_best_task_for(sim, job, tracker, now, max_level=ANY):
    """The full scan over every pending map and replica (the oracle)."""
    best = None
    for task in job.pending:
        if task.earliest_start > now:
            continue
        if task.input_mb == 0:
            return task, None, NODE
        stores = [task.pinned_store] if task.pinned_store is not None else task.candidate_stores
        for store in stores:
            if not sim.store_online(store):
                continue
            level = reference_locality(sim, tracker, store)
            if level > max_level:
                continue
            if best is None or level < best[2]:
                best = (task, store, level)
            if level == NODE:
                return best
    return best


def build_cluster():
    """Seven machines in three zones, plus a remote store in one of them."""
    b = ClusterBuilder(topology=Topology.of(["za", "zb", "zc"]), store_capacity_mb=1e6)
    for i, zone in enumerate(["za", "za", "za", "zb", "zb", "zc", "zc"]):
        b.add_machine(f"m{i}", ecu=2.0, cpu_cost=1e-5, zone=zone)
    b.add_remote_store("s3", capacity_mb=1e6, zone="zb")
    return b.build()


def build_workload(rng):
    data = [
        DataObject(data_id=d, name=f"d{d}", size_mb=64.0 * rng.randint(4, 20), origin_store=0)
        for d in range(3)
    ]
    jobs = [
        Job(job_id=d, name=f"scan{d}", tcp=0.1, data_ids=[d], num_tasks=1)
        for d in range(3)
    ]
    jobs.append(Job(job_id=3, name="pi", tcp=0.0, num_tasks=6, cpu_seconds_noinput=60.0))
    return Workload(jobs=jobs, data=data)


def make_sim(seed):
    rng = random.Random(seed)
    workload = build_workload(rng)
    sim = HadoopSimulator(
        build_cluster(),
        workload,
        DelayScheduler(),
        SimConfig(replication=1 + seed % 3, placement_seed=seed),
    )
    sim.scheduler.bind(sim)
    sim._populate()
    states = [sim.jobtracker.submit(job, workload, now=0.0) for job in workload.jobs]
    # input-less maps in a data job too: node-level lookups must merge the
    # host index with the input-less list in pending order
    mixed = states[seed % 3]
    for i in range(2):
        mixed.requeue(
            SimTask(job_id=mixed.job_id, task_index=1000 + i, input_mb=0.0, cpu_seconds=1.0)
        )
    return sim, states


def assert_same_answers(sim, states, now):
    for state in states:
        for tracker in sim.trackers:
            for level in LEVELS:
                want = reference_best_task_for(sim, state, tracker, now, level)
                got = best_task_for(sim, state, tracker, now, level)
                assert got == want, (state.job_id, tracker.machine_id, level, now)


@pytest.mark.parametrize("seed", range(12))
def test_indexed_lookup_matches_full_scan(seed):
    rng = random.Random(1000 + seed)
    sim, states = make_sim(seed)
    launched = []  # (state, task) taken off pending and not yet re-queued
    now = 0.0
    for _step in range(120):
        op = rng.random()
        if op < 0.45:
            # a launch: the indexed answer for one offer, or any pending map
            state = rng.choice(states)
            tracker = rng.choice(sim.trackers)
            found = best_task_for(sim, state, tracker, now, rng.choice(LEVELS))
            task = found[0] if found is not None else None
            if task is None and state.pending and rng.random() < 0.5:
                task = rng.choice(state.pending)
            if task is not None:
                state.take_pending(task)
                launched.append((state, task))
        elif op < 0.65 and launched:
            state, task = launched.pop(rng.randrange(len(launched)))
            state.requeue(task)
        elif op < 0.75:
            tracker = rng.choice(sim.trackers)
            tracker.alive = not tracker.alive  # failure or recovery
        elif op < 0.85:
            state = rng.choice(states)
            if state.pending:
                task = rng.choice(state.pending)
                task.earliest_start = now + rng.choice([5.0, 30.0, 90.0])
        else:
            now += rng.choice([1.0, 10.0, 40.0])
        assert_same_answers(sim, states, now)


def test_cache_follows_pending_and_is_dropped_when_empty():
    sim, states = make_sim(4)
    state = states[0]
    tracker = sim.trackers[0]
    assert state._map_cache is None  # built lazily
    best_task_for(sim, state, tracker, 0.0)
    assert state._map_cache is not None
    taken = []
    while state.pending:
        task = best_task_for(sim, state, tracker, 0.0)[0]
        state.take_pending(task)
        taken.append(task)
    assert state._map_cache is None  # dropped with the last pending map
    state.requeue(taken[0])
    state.requeue(taken[0])  # already queued: no duplicate
    assert state.pending == [taken[0]]
    assert best_task_for(sim, state, tracker, 0.0)[0] is taken[0]


def test_lips_run_builds_no_cache(monkeypatch):
    built = []

    class CountingMapCache(jobtracker.MapCache):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(jobtracker, "MapCache", CountingMapCache)
    cluster = build_cluster()
    workload = build_workload(random.Random(0))
    sim = HadoopSimulator(
        cluster, workload, LipsScheduler(epoch_length=600.0), SimConfig(placement_seed=1)
    )
    sim.run()
    assert sim.metrics.tasks_run > 0
    assert built == []

    sim = HadoopSimulator(cluster, workload, DelayScheduler(), SimConfig(placement_seed=1))
    sim.run()
    assert built  # the same workload under a locality scheduler does index
