"""Discrete-event Hadoop/MapReduce cluster simulator.

The paper validates LiPS inside Hadoop 0.20 on EC2; this package provides the
equivalent substrate: a deterministic discrete-event simulation of the
scheduler-visible Hadoop surface —

* :mod:`repro.hadoop.events` — the event queue / simulation clock;
* :mod:`repro.hadoop.hdfs` — NameNode/DataNode block placement and
  replication (the paper's ``ReplicationTargetChooser`` hook);
* :mod:`repro.hadoop.tasktracker` — per-node map slots and task
  execution (CPU time scaled by node ECU, reads timed by bandwidth);
* :mod:`repro.hadoop.jobtracker` — job queue, heartbeats, completion
  tracking, speculative execution;
* :mod:`repro.hadoop.transfer` — the shared-bandwidth network model;
* :mod:`repro.hadoop.sim` — the top-level :class:`HadoopSimulator` wiring a
  cluster, a workload and a pluggable scheduler together;
* :mod:`repro.hadoop.metrics` — makespan, dollar cost, locality and
  utilization accounting.

Schedulers plug in through :class:`repro.schedulers.base.TaskScheduler`.
"""

from repro.hadoop.events import EventQueue
from repro.hadoop.hdfs import HDFS, Block, PlacementPolicy
from repro.hadoop.jobtracker import JobTracker
from repro.hadoop.metrics import SimMetrics
from repro.hadoop.sim import HadoopSimulator, SimConfig, SimResult
from repro.hadoop.tasktracker import TaskAttempt, TaskTracker

__all__ = [
    "Block",
    "EventQueue",
    "HDFS",
    "HadoopSimulator",
    "JobTracker",
    "PlacementPolicy",
    "SimConfig",
    "SimMetrics",
    "SimResult",
    "TaskAttempt",
    "TaskTracker",
]
