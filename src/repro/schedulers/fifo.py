"""Hadoop's default scheduler: FIFO with greedy locality.

"By default, Hadoop schedules jobs in FIFO order, with 5 priorities.  When a
TaskTracker becomes idle, the JobTracker assigns it the oldest highest
priority task in the incoming queue.  For increased data locality, the
JobTracker greedily picks the task with data closest to the TaskTracker: on
the same node if possible, otherwise on the same rack, and finally on a
remote rack."  (Paper, Section II.)

Our zone model plays the rack role: node-local → zone-local → remote zone.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hadoop.jobtracker import JobState, read_stores
from repro.hadoop.tasktracker import SimTask, TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler

#: locality levels, best first
NODE, ZONE, ANY = 0, 1, 2


def best_task_for(
    sim, job: JobState, tracker: TaskTracker, now: float, max_level: int = ANY
) -> Optional[Tuple[SimTask, Optional[int], int]]:
    """The job's ready pending task with the best locality for ``tracker``.

    Returns ``(task, source_store, locality_level)`` or None: the first
    ready task, in pending order, at the best level up to ``max_level``
    that has an online replica, read from its first online store at that
    level.  Input-less tasks count as node-local (no read).  Each level is
    one lookup in the job's :class:`~repro.hadoop.jobtracker.MapCache`:
    the tracker's host index, then its zone index, then the pending list.
    """
    cache = job.map_cache(sim.store_host, sim.store_zone)
    machine = tracker.machine_id
    host = None
    if tracker.alive:  # a dead tracker's own replicas are offline
        host = next(cache.ready(cache.by_host.get(machine, ()), now), None)
    free = next(cache.ready(cache.inputless, now), None)
    if free is not None and (host is None or free[0] < host[0]):
        return free[1], None, NODE
    if host is not None:
        task = host[1]
        store_host = cache.store_host
        for store in read_stores(task):
            if store_host[store] == machine:
                return task, store, NODE
    if max_level < ZONE:
        return None
    online = sim.store_online
    zone = tracker.machine.zone
    store_zone = cache.store_zone
    for _seq, task in cache.ready(cache.by_zone.get(zone, ()), now):
        for store in read_stores(task):
            if store_zone[store] == zone and online(store):
                return task, store, ZONE
    if max_level < ANY:
        return None
    for task in job.pending:
        if task.earliest_start > now:
            continue
        for store in read_stores(task):
            if online(store):
                return task, store, ANY
    return None


class FifoScheduler(TaskScheduler):
    """FIFO job order, greedy per-slot locality."""

    def __init__(self) -> None:
        super().__init__()

    def _job_order(self) -> List[JobState]:
        jobs = [j for j in self.sim.jobtracker.queue if j.pending]
        return sorted(jobs, key=lambda j: (-j.job.priority, j.submit_time, j.job_id))

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        for job in self._job_order():
            found = best_task_for(self.sim, job, tracker, now)
            if found is not None:
                task, store, _level = found
                return Assignment(job=job, task=task, source_store=store)
        return None
