"""The JobTracker: job queue, task bookkeeping and speculative execution.

Holds one :class:`JobState` per submitted job, expands jobs into block-level
:class:`~repro.hadoop.tasktracker.SimTask` map tasks (one map per HDFS block,
exactly the Table IV arithmetic: 100 GB / 64 MB + 8 Pi tasks = 1608 maps),
and mediates between free slots and the pluggable scheduler.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.hadoop.hdfs import HDFS
from repro.hadoop.tasktracker import SimTask, TaskAttempt, TaskTracker
from repro.obs.trace import NULL_TRACER
from repro.workload.job import Job, Workload


#: one index entry: the task's pending-order stamp and the task
Entry = Tuple[int, SimTask]


def read_stores(task: SimTask) -> List[int]:
    """The stores a map may read: its pinned store if set, else its replicas."""
    return [task.pinned_store] if task.pinned_store is not None else task.candidate_stores


class MapCache:
    """A job's pending maps indexed by replica host and zone.

    Hadoop's ``nonRunningMapCache``: ``by_host[m]`` lists the maps with a
    replica on machine ``m``'s store, ``by_zone[z]`` those with a replica
    in zone ``z``, and ``inputless`` the maps that read nothing.  Every
    index holds ``(seq, task)`` entries in pending order, where ``seq``
    stamps the task's place in the queue (renewed on re-queue).  An entry
    is live while ``live[task] == seq``; launches and re-stamps leave stale
    entries behind, trimmed from an index's head as lookups reach them.
    The store lists are read once, when a task is indexed.
    """

    __slots__ = ("live", "by_host", "by_zone", "inputless", "store_host", "store_zone", "_seq")

    def __init__(
        self,
        pending: Sequence[SimTask],
        store_host: Sequence[Optional[int]],
        store_zone: Sequence[str],
    ) -> None:
        self.live: Dict[SimTask, int] = {}
        self.by_host: Dict[int, Deque[Entry]] = defaultdict(deque)
        self.by_zone: Dict[str, Deque[Entry]] = defaultdict(deque)
        self.inputless: Deque[Entry] = deque()
        self.store_host = store_host
        self.store_zone = store_zone
        self._seq = itertools.count()
        for task in pending:
            self.add(task)

    def add(self, task: SimTask) -> None:
        """Index a task at the back of the pending order."""
        seq = next(self._seq)
        self.live[task] = seq
        entry = (seq, task)
        if task.input_mb == 0:
            self.inputless.append(entry)
            return
        hosts: List[int] = []
        zones: List[str] = []
        for store in read_stores(task):
            host = self.store_host[store]
            if host is not None and host not in hosts:
                hosts.append(host)
                self.by_host[host].append(entry)
            zone = self.store_zone[store]
            if zone not in zones:
                zones.append(zone)
                self.by_zone[zone].append(entry)

    def discard(self, task: SimTask) -> None:
        """Forget a task that left the pending queue."""
        self.live.pop(task, None)

    def ready(self, entries: Deque[Entry], now: float) -> Iterator[Entry]:
        """Live entries of one index whose task may start by ``now``, in order.

        Trims stale entries off the index head first, so a lookup that
        returns at the head costs O(1) however many maps have launched.
        """
        live = self.live
        while entries:
            seq, task = entries[0]
            if live.get(task) == seq:
                break
            entries.popleft()
        for seq, task in entries:
            if task.earliest_start <= now and live.get(task) == seq:
                yield seq, task


@dataclass(eq=False)
class JobState:
    """Runtime state of one job (compared by identity, like its tasks)."""

    job: Job
    tasks: List[SimTask]
    pending: List[SimTask] = field(default_factory=list)
    running: Dict[tuple, List[TaskAttempt]] = field(default_factory=dict)
    completed: Set[tuple] = field(default_factory=set)
    submit_time: float = 0.0
    finish_time: Optional[float] = None
    #: delay-scheduler bookkeeping: when the job started waiting for locality
    wait_started: Optional[float] = None
    #: completion counter kept by finish_attempt — O(1) is_complete checks
    completed_maps: int = 0
    #: trace identity of the job's submit event (traced runs only)
    span_id: Optional[int] = None
    #: locality index of ``pending``, built on the first locality query
    #: and dropped whenever ``pending`` empties (see :meth:`map_cache`)
    _map_cache: Optional[MapCache] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        for task in self.pending:
            task.queued = True

    @property
    def job_id(self) -> int:
        """The underlying job's id."""
        return self.job.job_id

    @property
    def is_complete(self) -> bool:
        """True once every map task has completed."""
        return self.completed_maps == len(self.tasks)

    @property
    def num_pending(self) -> int:
        """Pending map tasks not yet launched."""
        return len(self.pending)

    @property
    def num_running(self) -> int:
        """Running attempts (speculative included)."""
        return sum(len(v) for v in self.running.values())

    @property
    def duration(self) -> Optional[float]:
        """Submit-to-finish seconds, None while running."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def take_pending(self, task: SimTask) -> None:
        """Remove a task from the pending queue at launch."""
        self.pending.remove(task)
        task.queued = False
        if self._map_cache is not None:
            if self.pending:
                self._map_cache.discard(task)
            else:
                self._map_cache = None

    def requeue(self, task: SimTask) -> None:
        """Put a task whose attempt died back at the end of its pending queue."""
        if not task.queued:
            self.pending.append(task)
            task.queued = True
            if self._map_cache is not None:
                self._map_cache.add(task)

    def map_cache(
        self, store_host: Sequence[Optional[int]], store_zone: Sequence[str]
    ) -> MapCache:
        """The locality index of the pending maps, built on first use.

        ``pending`` is mutated only through :meth:`take_pending` and
        :meth:`requeue`, which keep the index (and each task's ``queued``
        flag) in step with it.
        """
        if self._map_cache is None:
            self._map_cache = MapCache(self.pending, store_host, store_zone)
        return self._map_cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobState({self.job.name!r}, pending={self.num_pending}, "
            f"running={self.num_running}, done={len(self.completed)}/{len(self.tasks)})"
        )


def expand_job(job: Job, workload: Workload, hdfs: HDFS) -> List[SimTask]:
    """Expand a job into block-granular map tasks.

    Input-bearing jobs get one task per HDFS block of their data objects
    (candidate stores = the block's replica set).  Input-less jobs get
    ``num_tasks`` equal CPU slices.
    """
    tasks: List[SimTask] = []
    if not job.data_ids:
        per_task = job.cpu_seconds_noinput / job.num_tasks
        for t in range(job.num_tasks):
            tasks.append(
                SimTask(
                    job_id=job.job_id,
                    task_index=t,
                    input_mb=0.0,
                    cpu_seconds=per_task,
                )
            )
        return tasks
    index = 0
    extra_cpu = job.cpu_seconds_noinput
    total_blocks = sum(len(hdfs.blocks_of(d)) for d in job.data_ids)
    for d in job.data_ids:
        for block in hdfs.blocks_of(d):
            # partial accesses scan only read_fraction of each block
            read_mb = block.size_mb * job.read_fraction
            cpu = job.tcp * read_mb
            if total_blocks:
                cpu += extra_cpu / total_blocks
            tasks.append(
                SimTask(
                    job_id=job.job_id,
                    task_index=index,
                    input_mb=read_mb,
                    cpu_seconds=cpu,
                    block_id=block.block_id,
                    data_id=d,
                    candidate_stores=list(block.replicas),
                )
            )
            index += 1
    return tasks


class JobTracker:
    """Job registry and attempt lifecycle."""

    def __init__(self, hdfs: HDFS, tracer=None) -> None:
        self.hdfs = hdfs
        self.jobs: Dict[int, JobState] = {}
        #: incomplete jobs only, FIFO by submit: finish_attempt removes a job
        #: the moment it completes, so per-offer scans never see finished ones
        self.queue: List[JobState] = []
        self._attempt_ids = itertools.count()
        #: trace emitter for job lifecycle (the simulator installs its own)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- job lifecycle ---------------------------------------------------------
    def submit(self, job: Job, workload: Workload, now: float) -> JobState:
        """Register a job, expanding it into block-level tasks."""
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        tasks = expand_job(job, workload, self.hdfs)
        state = JobState(job=job, tasks=tasks, pending=list(tasks), submit_time=now)
        self.jobs[job.job_id] = state
        if not state.is_complete:  # a job with no blocks has nothing to run
            self.queue.append(state)
        if self.tracer.enabled:
            state.span_id = self.tracer.new_span_id()
            self.tracer.event(
                "job",
                "submit",
                now,
                job=job.job_id,
                job_name=job.name,
                tasks=len(tasks),
                span_id=state.span_id,
            )
        return state

    def has_pending_tasks(self) -> bool:
        """True while any map awaits launch."""
        return any(j.pending for j in self.queue)

    # -- attempts ---------------------------------------------------------------
    def new_attempt(
        self,
        job: JobState,
        task: SimTask,
        tracker: TaskTracker,
        source_store: Optional[int],
        start_time: float,
        read_seconds: float,
        compute_seconds: float,
        speculative: bool = False,
    ) -> TaskAttempt:
        """Create and register a task attempt."""
        attempt = TaskAttempt(
            attempt_id=next(self._attempt_ids),
            task=task,
            machine_id=tracker.machine_id,
            source_store=source_store,
            start_time=start_time,
            read_seconds=read_seconds,
            compute_seconds=compute_seconds,
            speculative=speculative,
        )
        job.running.setdefault(task.key, []).append(attempt)
        return attempt

    def finish_attempt(self, job: JobState, attempt: TaskAttempt, now: float) -> List[TaskAttempt]:
        """Mark a successful attempt; returns sibling attempts to kill."""
        siblings = [
            a
            for a in job.running.pop(attempt.task.key, [])
            if a.attempt_id != attempt.attempt_id
        ]
        if attempt.task.key not in job.completed:
            job.completed.add(attempt.task.key)
            job.completed_maps += 1
        if job.is_complete and job.finish_time is None:
            job.finish_time = now
            self.queue.remove(job)
            if self.tracer.enabled:
                self.tracer.span(
                    "job",
                    "run",
                    job.submit_time,
                    now - job.submit_time,
                    job=job.job_id,
                    job_name=job.job.name,
                    tasks=len(job.tasks),
                    span_id=self.tracer.new_span_id(),
                    parent=job.span_id,
                )
        return siblings

    def drop_attempt(self, job: JobState, attempt: TaskAttempt) -> None:
        """Remove a killed attempt from the running set."""
        lst = job.running.get(attempt.task.key)
        if lst is None:
            return
        lst[:] = [a for a in lst if a.attempt_id != attempt.attempt_id]
        if not lst:
            job.running.pop(attempt.task.key, None)

    # -- speculation ----------------------------------------------------------
    def speculation_candidate(
        self, now: float, max_copies: int = 2, min_elapsed: float = 60.0
    ) -> Optional[tuple]:
        """Pick a (job, task, attempt) worth duplicating (LATE-lite).

        Chooses the running task with the latest expected finish among jobs
        with no pending tasks, provided it has fewer than ``max_copies``
        attempts and has run at least ``min_elapsed`` seconds.
        """
        best = None
        best_finish = now
        for job in self.queue:
            if job.pending:
                continue
            for attempts in job.running.values():
                primary = None
                copies = 0
                for a in attempts:
                    if not a.killed:
                        copies += 1
                        if primary is None:
                            primary = a
                if primary is None or copies >= max_copies:
                    continue
                if now - primary.start_time < min_elapsed:
                    continue
                if primary.finish_time > best_finish:
                    best_finish = primary.finish_time
                    best = (job, primary.task, primary)
        return best

    # -- metrics helpers ---------------------------------------------------------
    def all_complete(self) -> bool:
        """True when every submitted job finished."""
        return not self.queue

    def makespan(self) -> float:
        """Latest job finish time (0 when none finished)."""
        finishes = [j.finish_time for j in self.jobs.values() if j.finish_time is not None]
        return max(finishes, default=0.0)
