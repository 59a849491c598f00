"""FairScheduler: pool-based fair sharing (Facebook's Hadoop scheduler).

"FairScheduler defines job pools such that every pool gets a fair share of
the cluster capacity over time ... short jobs can finish faster while longer
jobs do not starve."  (Paper, Section II.)

Jobs are grouped into pools by ``Job.pool``; the pool currently furthest
below its fair share of running tasks schedules next, FIFO within the pool,
with the same greedy locality preference as the default scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hadoop.jobtracker import JobState
from repro.hadoop.tasktracker import TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler
from repro.schedulers.fifo import best_task_for


class FairScheduler(TaskScheduler):
    """Max-min fair sharing across pools with locality preference.

    ``min_share`` optionally guarantees a pool a minimum number of
    concurrently running tasks; pools below their minimum preempt the
    fairness order (without killing tasks — this is the non-preemptive
    variant).
    """

    def __init__(self, min_share: Optional[Dict[str, int]] = None) -> None:
        super().__init__()
        self.min_share = dict(min_share or {})

    # -- fairness bookkeeping ------------------------------------------------
    def _pools(self) -> Dict[str, List[JobState]]:
        pools: Dict[str, List[JobState]] = {}
        for job in self.sim.jobtracker.queue:
            if job.pending:
                pools.setdefault(job.job.pool, []).append(job)
        return pools

    def _running_by_pool(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self.sim.jobtracker.queue:
            out[job.job.pool] = out.get(job.job.pool, 0) + job.num_running
        return out

    def _pool_order(self) -> List[str]:
        pools = self._pools()
        if not pools:
            return []
        running = self._running_by_pool()
        total_slots = sum(t.map_slots for t in self.sim.trackers)
        fair = total_slots / max(1, len(pools))

        def key(pool: str):
            r = running.get(pool, 0)
            below_min = r < self.min_share.get(pool, 0)
            deficit = r / max(fair, 1e-9)
            return (not below_min, deficit, pool)

        return sorted(pools, key=key)

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        pools = self._pools()
        for pool in self._pool_order():
            jobs = sorted(pools[pool], key=lambda j: (j.submit_time, j.job_id))
            for job in jobs:
                found = best_task_for(self.sim, job, tracker, now)
                if found is not None:
                    task, store, _level = found
                    return Assignment(job=job, task=task, source_store=store)
        return None
