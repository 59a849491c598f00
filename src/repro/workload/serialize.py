"""JSON (de)serialisation for workloads and clusters.

Traces and testbeds are the shareable artifacts of a scheduling study;
these helpers give them a stable, versioned on-disk form:

* :func:`workload_to_dict` / :func:`workload_from_dict` (+ ``save/load``)
  round-trip every :class:`~repro.workload.job.Job` and
  :class:`~repro.workload.job.DataObject` field, one record at a time
  through :func:`job_to_dict` / :func:`data_to_dict` (the service's WAL
  and snapshots use the same four functions);
* :func:`cluster_to_dict` / :func:`cluster_from_dict` rebuild a
  :class:`~repro.cluster.builder.Cluster` including zones, per-pair
  topology overrides and remote stores.

The format is plain JSON with a ``format``/``version`` header; loading an
unknown version fails loudly rather than guessing.  Files written before
the reduce phase was removed still load: their ``num_reduces``,
``shuffle_ratio``, ``reduce_cpu_per_mb`` and ``reduce_slots`` keys are
dropped, and a job with ``num_reduces > 0`` is rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.cluster.builder import Cluster, ClusterBuilder
from repro.cluster.topology import Topology, Zone
from repro.workload.job import DataObject, Job, Workload

FORMAT_WORKLOAD = "repro-workload"
FORMAT_CLUSTER = "repro-cluster"
VERSION = 1

PathLike = Union[str, Path]


# -- jobs and data objects -----------------------------------------------------
def job_to_dict(job: Job) -> Dict[str, Any]:
    """Serialise one job."""
    return {
        "job_id": job.job_id,
        "name": job.name,
        "tcp": job.tcp,
        "data_ids": list(job.data_ids),
        "num_tasks": job.num_tasks,
        "cpu_seconds_noinput": job.cpu_seconds_noinput,
        "arrival_time": job.arrival_time,
        "pool": job.pool,
        "app": job.app,
        "priority": job.priority,
        "read_fraction": job.read_fraction,
    }


def job_from_dict(payload: Dict[str, Any]) -> Job:
    """Rebuild one job, accepting the reduce keys of older files.

    A job written with ``num_reduces == 0`` ran map-only, and its
    ``shuffle_ratio`` and ``reduce_cpu_per_mb`` were never read, so all
    three keys are dropped.  A job that had reduces cannot run here.
    """
    fields = dict(payload)
    reduces = fields.pop("num_reduces", 0)
    if reduces:
        raise ValueError(
            f"job {fields.get('name')!r} has num_reduces={reduces}; "
            "the simulator runs map-only jobs"
        )
    fields.pop("shuffle_ratio", None)
    fields.pop("reduce_cpu_per_mb", None)
    return Job(**fields)


def data_to_dict(obj: DataObject) -> Dict[str, Any]:
    """Serialise one data object."""
    return {
        "data_id": obj.data_id,
        "name": obj.name,
        "size_mb": obj.size_mb,
        "origin_store": obj.origin_store,
        "block_mb": obj.block_mb,
    }


def data_from_dict(payload: Dict[str, Any]) -> DataObject:
    """Rebuild one data object."""
    return DataObject(**payload)


# -- workloads ----------------------------------------------------------------
def workload_to_dict(workload: Workload) -> Dict[str, Any]:
    """Serialise a workload to a JSON-ready dict."""
    return {
        "format": FORMAT_WORKLOAD,
        "version": VERSION,
        "data": [data_to_dict(d) for d in workload.data],
        "jobs": [job_to_dict(j) for j in workload.jobs],
    }


def _check_header(payload: Dict[str, Any], expected_format: str) -> None:
    fmt = payload.get("format")
    version = payload.get("version")
    if fmt != expected_format:
        raise ValueError(f"expected format {expected_format!r}, got {fmt!r}")
    if version != VERSION:
        raise ValueError(f"unsupported {expected_format} version {version!r}")


def workload_from_dict(payload: Dict[str, Any]) -> Workload:
    """Rebuild a workload from its dict form."""
    _check_header(payload, FORMAT_WORKLOAD)
    data = [data_from_dict(d) for d in payload["data"]]
    jobs = [job_from_dict(j) for j in payload["jobs"]]
    return Workload(jobs=jobs, data=data)


def save_workload(workload: Workload, path: PathLike) -> None:
    """Write a workload to a JSON file."""
    Path(path).write_text(json.dumps(workload_to_dict(workload), indent=1))


def load_workload(path: PathLike) -> Workload:
    """Read a workload from a JSON file."""
    return workload_from_dict(json.loads(Path(path).read_text()))


# -- clusters --------------------------------------------------------------------
def cluster_to_dict(cluster: Cluster) -> Dict[str, Any]:
    """Serialise a cluster (topology, machines, stores) to a dict."""
    topo = cluster.topology
    return {
        "format": FORMAT_CLUSTER,
        "version": VERSION,
        "topology": {
            "zones": [
                {
                    "name": z.name,
                    "intra_bandwidth_mbps": z.intra_bandwidth_mbps,
                    "rtt_ms": z.rtt_ms,
                }
                for z in topo.zones.values()
            ],
            "inter_bandwidth_mbps": topo.inter_bandwidth_mbps,
            "bandwidth_overrides": [
                [a, b, v] for (a, b), v in topo._bandwidth_overrides.items()
            ],
            "rtt_overrides": [[a, b, v] for (a, b), v in topo._rtt_overrides.items()],
        },
        "machines": [
            {
                "name": m.name,
                "ecu": m.ecu,
                "cpu_cost": m.cpu_cost,
                "zone": m.zone,
                "map_slots": m.map_slots,
                "uptime": m.uptime,
                "memory_gb": m.memory_gb,
                "instance_type": m.instance_type,
            }
            for m in cluster.machines
        ],
        "stores": [
            {
                "name": s.name,
                "capacity_mb": s.capacity_mb,
                "zone": s.zone,
                "colocated_machine": s.colocated_machine,
            }
            for s in cluster.stores
        ],
    }


def cluster_from_dict(payload: Dict[str, Any]) -> Cluster:
    """Rebuild a cluster from its dict form."""
    _check_header(payload, FORMAT_CLUSTER)
    t = payload["topology"]
    topo = Topology(inter_bandwidth_mbps=t["inter_bandwidth_mbps"])
    for z in t["zones"]:
        topo.add_zone(Zone(**z))
    for a, b, v in t.get("bandwidth_overrides", []):
        topo.set_bandwidth(a, b, v)
    for a, b, v in t.get("rtt_overrides", []):
        topo.set_rtt(a, b, v)

    builder = ClusterBuilder(topology=topo)
    colocated = {
        s["colocated_machine"]: s
        for s in payload["stores"]
        if s["colocated_machine"] is not None
    }
    for i, m in enumerate(payload["machines"]):
        store = colocated.get(i)
        builder.add_machine(
            name=m["name"],
            ecu=m["ecu"],
            cpu_cost=m["cpu_cost"],
            zone=m["zone"],
            map_slots=m["map_slots"],
            uptime=m["uptime"],
            memory_gb=m["memory_gb"],
            instance_type=m["instance_type"],
            with_store=store is not None,
            store_capacity_mb=store["capacity_mb"] if store else None,
        )
    for s in payload["stores"]:
        if s["colocated_machine"] is None:
            builder.add_remote_store(s["name"], s["capacity_mb"], s["zone"])
    return builder.build()


def save_cluster(cluster: Cluster, path: PathLike) -> None:
    """Write a cluster to a JSON file."""
    Path(path).write_text(json.dumps(cluster_to_dict(cluster), indent=1))


def load_cluster(path: PathLike) -> Cluster:
    """Read a cluster from a JSON file."""
    return cluster_from_dict(json.loads(Path(path).read_text()))
