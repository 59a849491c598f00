"""Workload substrate: jobs, data objects, app profiles and trace generators.

* :mod:`repro.workload.job` — ``Job``/``Task``/``DataObject`` (the ``J`` and
  ``D`` sets of the paper's Table II notation);
* :mod:`repro.workload.apps` — the five benchmark applications of paper
  Table I (Grep, Stress1, Stress2, WordCount, Pi) and the nine-job Table IV
  workload;
* :mod:`repro.workload.matrix` — the job-data access matrix ``JD``;
* :mod:`repro.workload.generator` — random workloads in the parameter ranges
  of the paper's Figure 5 simulation;
* :mod:`repro.workload.swim` — a synthetic SWIM/Facebook-like day trace for
  the 100-node experiments (Figures 9-10);
* :mod:`repro.workload.arrivals` — Poisson arrivals for the online setting.
"""

from repro.workload.apps import (
    APP_PROFILES,
    AppProfile,
    make_job,
    table1_rows,
    table4_jobs,
)
from repro.workload.arrivals import PoissonArrivals
from repro.workload.generator import RandomWorkload, random_workload
from repro.workload.job import DataObject, Job, Task, Workload
from repro.workload.matrix import access_matrix
from repro.workload.swim import SwimConfig, synthesize_facebook_day

__all__ = [
    "APP_PROFILES",
    "AppProfile",
    "DataObject",
    "Job",
    "PoissonArrivals",
    "RandomWorkload",
    "SwimConfig",
    "Task",
    "Workload",
    "access_matrix",
    "make_job",
    "random_workload",
    "synthesize_facebook_day",
    "table1_rows",
    "table4_jobs",
]
