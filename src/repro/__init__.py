"""repro — a reproduction of LiPS, the cost-efficient MapReduce co-scheduler.

LiPS (Ehsan et al., IPPS 2013) formulates MapReduce data placement and task
placement as one linear program minimising *dollar cost*.  This package
contains the full system: the LP models, an LP substrate with two backends,
an EC2-style cluster model, a discrete-event Hadoop simulator, five
schedulers, the paper's workloads, and an experiment harness regenerating
every table and figure of the paper's evaluation.

Typical entry points::

    from repro import (
        SchedulingInput, solve_co_offline,        # the analytic LP path
        HadoopSimulator, SimConfig, LipsScheduler # the simulated Hadoop path
    )

See README.md for a tour and DESIGN.md for the architecture.
"""

from repro.cluster import Cluster, ClusterBuilder, Topology, build_paper_testbed
from repro.core import (
    CoScheduleSolution,
    EpochController,
    FairShareConfig,
    SchedulingInput,
    round_schedule,
    solve_co_offline,
    solve_co_online,
    solve_simple_task,
    validate_solution,
)
from repro.hadoop import HadoopSimulator, SimConfig
from repro.schedulers import (
    DelayScheduler,
    FifoScheduler,
    GreedyCostScheduler,
    LipsScheduler,
)
from repro.workload import (
    DataObject,
    Job,
    SwimConfig,
    Workload,
    make_job,
    synthesize_facebook_day,
    table4_jobs,
)

__version__ = "0.1.0"

__all__ = [
    "Cluster",
    "ClusterBuilder",
    "CoScheduleSolution",
    "DataObject",
    "DelayScheduler",
    "EpochController",
    "FairShareConfig",
    "FifoScheduler",
    "GreedyCostScheduler",
    "HadoopSimulator",
    "Job",
    "LipsScheduler",
    "SchedulingInput",
    "SimConfig",
    "SwimConfig",
    "Topology",
    "Workload",
    "build_paper_testbed",
    "make_job",
    "round_schedule",
    "solve_co_offline",
    "solve_co_online",
    "solve_simple_task",
    "synthesize_facebook_day",
    "table4_jobs",
    "validate_solution",
]
