"""Delay scheduling (Zaharia et al., EuroSys 2010).

The paper's strongest "move computation" baseline: "when the job that should
be scheduled next according to fairness cannot launch a data-local task, it
yields shortly to other jobs launching their corresponding tasks instead",
which was shown to reach almost 100% data locality.

Implementation: jobs are considered in FIFO order; a job with no node-local
task for the offering tracker is skipped until it has waited ``node_delay_s``
(then zone-local is allowed) and ``zone_delay_s`` (then any placement).  The
wait clock resets whenever the job launches a local task, per the original
algorithm.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hadoop.jobtracker import JobState
from repro.hadoop.tasktracker import TaskTracker
from repro.schedulers.base import Assignment, TaskScheduler
from repro.schedulers.fifo import ANY, NODE, ZONE, best_task_for


class DelayScheduler(TaskScheduler):
    """FIFO + delay scheduling for locality.

    Parameters follow the delay-scheduling paper's W1/W2 thresholds; the
    defaults are 2 and 4 heartbeats at 3 s.
    """

    def __init__(self, node_delay_s: float = 6.0, zone_delay_s: float = 12.0) -> None:
        super().__init__()
        if node_delay_s < 0 or zone_delay_s < node_delay_s:
            raise ValueError("need 0 <= node_delay_s <= zone_delay_s")
        self.node_delay_s = node_delay_s
        self.zone_delay_s = zone_delay_s

    def _job_order(self) -> List[JobState]:
        jobs = [j for j in self.sim.jobtracker.queue if j.pending]
        return sorted(jobs, key=lambda j: (-j.job.priority, j.submit_time, j.job_id))

    def _allowed_level(self, job: JobState, now: float) -> int:
        if job.wait_started is None:
            return NODE
        waited = now - job.wait_started
        if waited >= self.zone_delay_s:
            return ANY
        if waited >= self.node_delay_s:
            return ZONE
        return NODE

    def select_task(self, tracker: TaskTracker, now: float) -> Optional[Assignment]:
        for job in self._job_order():
            allowed = self._allowed_level(job, now)
            found = best_task_for(self.sim, job, tracker, now, max_level=allowed)
            if found is None:
                # cannot launch within the allowed locality: start/continue
                # the wait clock and yield to the next job
                if job.wait_started is None:
                    job.wait_started = now
                continue
            task, store, level = found
            if level == NODE:
                job.wait_started = None  # locality achieved; reset the clock
            return Assignment(job=job, task=task, source_store=store)
        return None
