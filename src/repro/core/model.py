"""The scheduling input: paper Table II's notation as arrays.

:class:`SchedulingInput` gathers everything the LP models consume — the job
set, data objects, machine/store vectors and the cost matrices — in dense
NumPy form so model assembly is fully vectorised.

One data object per job
-----------------------
The paper's constraint (3)/(13) couples "the portion of job *k* reading
store *m*" to "the portion of *k*'s data object on *m*"; with several data
objects per job the coupling is ill-defined (the notation ``Size(D_k)``
confirms the single-object intent).  :func:`split_multi_object_jobs` levels a
multi-object job into one sub-job per object (task counts split
proportionally), after which :meth:`SchedulingInput.from_parts` accepts the
workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster.builder import Cluster
from repro.util import round_half_up
from repro.workload.job import Job, Workload
from repro.workload.matrix import access_matrix


def split_multi_object_jobs(workload: Workload) -> Workload:
    """Level jobs accessing several data objects into single-object sub-jobs.

    Mirrors the paper's DAG-levelling remark (Section III): the sub-jobs are
    mutually independent and together perform exactly the original work.
    Task counts are apportioned by object size (at least one task each).
    """
    jobs: List[Job] = []
    for job in workload.jobs:
        if len(job.data_ids) <= 1:
            jobs.append(dataclasses.replace(job, job_id=len(jobs), data_ids=list(job.data_ids)))
            continue
        total_mb = job.total_input_mb(workload.data)
        for d in job.data_ids:
            share = workload.data[d].size_mb / total_mb if total_mb else 1.0 / len(job.data_ids)
            jobs.append(
                dataclasses.replace(
                    job,
                    job_id=len(jobs),
                    name=f"{job.name}#d{d}",
                    data_ids=[d],
                    num_tasks=max(1, round_half_up(job.num_tasks * share)),
                    cpu_seconds_noinput=job.cpu_seconds_noinput * share,
                )
            )
    return Workload(jobs=jobs, data=list(workload.data))


@dataclass
class SchedulingInput:
    """Dense-array form of Table II, ready for vectorised LP assembly.

    Shapes (K jobs, L machines, S stores, D data objects):

    * ``jd``: (K, D) access matrix;
    * ``job_data``: (K,) data id per job, -1 for input-less jobs;
    * ``size_mb``: (K,) input MB per job (0 for input-less);
    * ``cpu``: (K,) total equivalent-CPU-seconds per job (``CPU(J)``);
    * ``jm``: (K, L) job execution cost matrix (``CPU(J_k)·CPU_Cost(M_l)``);
    * ``ms_cost``: (L, S) $/MB machine↔store;
    * ``ss_cost``: (S, S) $/MB store↔store;
    * ``bandwidth``: (L, S) MB/s machine↔store (``B``);
    * ``tp``: (L,) ECU throughput; ``uptime``: (L,); ``cap_mb``: (S,);
    * ``origin``: (D,) original store of each data object (``O_i``);
    * ``data_size_mb``: (D,).
    """

    cluster: Cluster
    workload: Workload
    jd: np.ndarray
    job_data: np.ndarray
    size_mb: np.ndarray
    cpu: np.ndarray
    jm: np.ndarray
    ms_cost: np.ndarray
    ss_cost: np.ndarray
    bandwidth: np.ndarray
    tp: np.ndarray
    uptime: np.ndarray
    cap_mb: np.ndarray
    origin: np.ndarray
    data_size_mb: np.ndarray

    @staticmethod
    def from_parts(
        cluster: Cluster,
        workload: Workload,
        ms_cost: Optional[np.ndarray] = None,
        ss_cost: Optional[np.ndarray] = None,
        bandwidth: Optional[np.ndarray] = None,
    ) -> "SchedulingInput":
        """Assemble the input; matrices default to the cluster's network model.

        Explicit ``ms_cost``/``ss_cost`` overrides serve the Figure 5 study,
        which randomises transfer costs directly.
        """
        for job in workload.jobs:
            if len(job.data_ids) > 1:
                raise ValueError(
                    f"job {job.name!r} accesses {len(job.data_ids)} data objects; "
                    "run split_multi_object_jobs() first"
                )
        L = cluster.num_machines
        S = cluster.num_stores
        D = workload.num_data

        jd = access_matrix(workload.jobs, workload.data)
        job_data = np.array(
            [job.data_ids[0] if job.data_ids else -1 for job in workload.jobs],
            dtype=np.int64,
        )
        # per-job read volume: Size(D_i) * JD_ki, i.e. partial accesses move
        # and read only their fraction (paper's fractional-JD extension)
        size_mb = np.array(
            [job.total_read_mb(workload.data) for job in workload.jobs]
        )
        cpu = np.array([job.total_cpu_seconds(workload.data) for job in workload.jobs])
        cpu_cost = cluster.cpu_cost_vector()
        jm = np.outer(cpu, cpu_cost)

        ms = ms_cost if ms_cost is not None else cluster.network.ms_cost
        ss = ss_cost if ss_cost is not None else cluster.network.ss_cost
        bw = bandwidth if bandwidth is not None else cluster.network.bandwidth
        if ms.shape != (L, S):
            raise ValueError(f"ms_cost must be ({L}, {S}), got {ms.shape}")
        if ss.shape != (S, S):
            raise ValueError(f"ss_cost must be ({S}, {S}), got {ss.shape}")
        if bw.shape != (L, S):
            raise ValueError(f"bandwidth must be ({L}, {S}), got {bw.shape}")

        origin = np.array([d.origin_store for d in workload.data], dtype=np.int64)
        if D and (origin.min() < 0 or origin.max() >= S):
            raise ValueError("data origin stores out of range")

        return SchedulingInput(
            cluster=cluster,
            workload=workload,
            jd=jd,
            job_data=job_data,
            size_mb=size_mb,
            cpu=cpu,
            jm=jm,
            ms_cost=np.asarray(ms, dtype=float),
            ss_cost=np.asarray(ss, dtype=float),
            bandwidth=np.asarray(bw, dtype=float),
            tp=cluster.throughput_vector(),
            uptime=cluster.uptime_vector(),
            cap_mb=cluster.store_capacity_vector(),
            origin=origin,
            data_size_mb=np.array([d.size_mb for d in workload.data]),
        )

    # -- dimensions --------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        """Number of jobs K."""
        return self.workload.num_jobs

    @property
    def num_machines(self) -> int:
        """Number of machines L."""
        return self.cluster.num_machines

    @property
    def num_stores(self) -> int:
        """Number of data stores S."""
        return self.cluster.num_stores

    @property
    def num_data(self) -> int:
        """Number of data objects D."""
        return self.workload.num_data

    def machine_capacity(self, horizon: Optional[float] = None) -> np.ndarray:
        """Per-machine CPU capacity ``TP·uptime`` (or ``TP·horizon``)."""
        if horizon is None:
            return self.tp * self.uptime
        return self.tp * horizon

    def jobs_with_input(self) -> np.ndarray:
        """Indices of jobs that read data."""
        return np.where(self.job_data >= 0)[0]

    def jobs_without_input(self) -> np.ndarray:
        """Indices of input-less jobs (e.g. Pi)."""
        return np.where(self.job_data < 0)[0]
