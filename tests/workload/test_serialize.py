"""Round-trip tests for workload/cluster JSON serialisation."""

import json

import numpy as np
import pytest

from repro.cluster.builder import build_paper_testbed
from repro.workload.apps import table4_jobs
from repro.workload.serialize import (
    cluster_from_dict,
    cluster_to_dict,
    load_cluster,
    load_workload,
    save_cluster,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)
from repro.workload.swim import SwimConfig, synthesize_facebook_day


class TestWorkloadRoundTrip:
    def test_table4_roundtrip(self):
        w = table4_jobs()
        w2 = workload_from_dict(workload_to_dict(w))
        assert w2.num_jobs == w.num_jobs
        assert w2.total_tasks() == w.total_tasks()
        assert w2.total_input_mb() == w.total_input_mb()
        for a, b in zip(w.jobs, w2.jobs):
            assert a == b
        for a, b in zip(w.data, w2.data):
            assert a == b

    def test_swim_roundtrip_preserves_arrivals(self):
        w = synthesize_facebook_day(SwimConfig(num_jobs=30, seed=2))
        w2 = workload_from_dict(workload_to_dict(w))
        assert [j.arrival_time for j in w2.jobs] == [j.arrival_time for j in w.jobs]
        assert [j.pool for j in w2.jobs] == [j.pool for j in w.jobs]

    def test_partial_fields_survive(self):
        from repro.workload.job import DataObject, Job, Workload

        data = [DataObject(data_id=0, name="d", size_mb=128.0, origin_store=0)]
        jobs = [Job(job_id=0, name="p", tcp=1.0, data_ids=[0], read_fraction=0.4)]
        w2 = workload_from_dict(workload_to_dict(Workload(jobs=jobs, data=data)))
        assert w2.jobs[0].read_fraction == pytest.approx(0.4)

    def test_file_roundtrip(self, tmp_path):
        w = table4_jobs()
        p = tmp_path / "w.json"
        save_workload(w, p)
        w2 = load_workload(p)
        assert w2.total_tasks() == 1608
        # the file is real JSON
        assert json.loads(p.read_text())["format"] == "repro-workload"

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="expected format"):
            workload_from_dict({"format": "something-else", "version": 1})

    def test_bad_version_rejected(self):
        payload = workload_to_dict(table4_jobs())
        payload["version"] = 99
        with pytest.raises(ValueError, match="version"):
            workload_from_dict(payload)


#: files as written before the reduce phase was removed: every job carries
#: the three reduce keys and every machine a reduce_slots count
PARENT_WORKLOAD = """{"format": "repro-workload", "version": 1,
 "data": [{"data_id": 0, "name": "logs", "size_mb": 128.0, "origin_store": 0, "block_mb": 64.0}],
 "jobs": [
  {"job_id": 0, "name": "grep-0", "tcp": 0.3125, "data_ids": [0], "num_tasks": 2,
   "cpu_seconds_noinput": 0.0, "arrival_time": 30.0, "pool": "default", "app": "grep",
   "priority": 0, "num_reduces": 0, "shuffle_ratio": 0.0, "reduce_cpu_per_mb": 0.0,
   "read_fraction": 1.0},
  {"job_id": 1, "name": "pi-1", "tcp": 0.0, "data_ids": [], "num_tasks": 2,
   "cpu_seconds_noinput": 600.0, "arrival_time": 0.0, "pool": "default", "app": "pi",
   "priority": 0, "num_reduces": 0, "shuffle_ratio": 0.0, "reduce_cpu_per_mb": 0.0,
   "read_fraction": 1.0}]}"""

PARENT_CLUSTER = """{"format": "repro-cluster", "version": 1,
 "topology": {
  "zones": [{"name": "za", "intra_bandwidth_mbps": 500.0, "rtt_ms": 0.5},
            {"name": "zb", "intra_bandwidth_mbps": 500.0, "rtt_ms": 0.5}],
  "inter_bandwidth_mbps": 250.0, "bandwidth_overrides": [], "rtt_overrides": []},
 "machines": [
  {"name": "m0", "ecu": 2.0, "cpu_cost": 1e-05, "zone": "za", "map_slots": 2,
   "reduce_slots": 1, "uptime": 3600.0, "memory_gb": 1.7, "instance_type": "custom"},
  {"name": "c1.medium-zb-001", "ecu": 5.0, "cpu_cost": 1.1000000000000001e-05, "zone": "zb",
   "map_slots": 4, "reduce_slots": 2, "uptime": 3600.0, "memory_gb": 1.7,
   "instance_type": "c1.medium"}],
 "stores": [
  {"name": "dn-m0", "capacity_mb": 163840.0, "zone": "za", "colocated_machine": 0},
  {"name": "dn-c1.medium-zb-001", "capacity_mb": 358400.0, "zone": "zb", "colocated_machine": 1},
  {"name": "s3", "capacity_mb": 5000.0, "zone": "zb", "colocated_machine": null}]}"""


class TestParentFormatFiles:
    def test_workload_with_reduce_keys_loads_map_only(self, tmp_path):
        from repro.workload.apps import make_job
        from repro.workload.job import DataObject

        p = tmp_path / "w.json"
        p.write_text(PARENT_WORKLOAD)
        w = load_workload(p)
        assert w.data == [DataObject(data_id=0, name="logs", size_mb=128.0, origin_store=0)]
        assert w.jobs == [
            make_job("grep", 0, data_ids=[0], num_tasks=2, arrival_time=30.0),
            make_job("pi", 1, num_tasks=2),
        ]
        # re-saving drops the reduce keys; the format version stays
        save_workload(w, p)
        saved = json.loads(p.read_text())
        assert saved["version"] == 1
        assert not {"num_reduces", "shuffle_ratio", "reduce_cpu_per_mb"} & set(saved["jobs"][0])

    def test_workload_job_with_reduces_rejected(self):
        payload = json.loads(PARENT_WORKLOAD)
        payload["jobs"][0]["num_reduces"] = 2
        with pytest.raises(ValueError, match="'grep-0'.*num_reduces=2"):
            workload_from_dict(payload)

    def test_cluster_with_reduce_slots_loads(self, tmp_path):
        from repro.cluster.builder import ClusterBuilder
        from repro.cluster.topology import Topology

        p = tmp_path / "c.json"
        p.write_text(PARENT_CLUSTER)
        c = load_cluster(p)
        b = ClusterBuilder(topology=Topology.of(["za", "zb"]))
        b.add_machine("m0", ecu=2.0, cpu_cost=1e-5, zone="za")
        b.add_ec2_nodes("c1.medium", 1, "zb")
        b.add_remote_store("s3", capacity_mb=5000.0, zone="zb")
        expected = b.build()
        assert c.machines == expected.machines
        assert c.stores == expected.stores
        assert np.array_equal(c.network.ms_cost, expected.network.ms_cost)
        assert np.array_equal(c.network.ss_cost, expected.network.ss_cost)
        assert np.array_equal(c.network.bandwidth, expected.network.bandwidth)
        save_cluster(c, p)
        assert all("reduce_slots" not in m for m in json.loads(p.read_text())["machines"])


class TestRoundTripProperty:
    def test_random_workloads_roundtrip(self):
        from hypothesis import given, settings, strategies as st

        from repro.workload.job import DataObject, Job, Workload

        @st.composite
        def random_wl(draw):
            n = draw(st.integers(min_value=1, max_value=6))
            data, jobs = [], []
            for k in range(n):
                if draw(st.booleans()):
                    d = DataObject(
                        data_id=len(data),
                        name=f"d{len(data)}",
                        size_mb=draw(st.floats(min_value=1.0, max_value=4096.0)),
                        origin_store=draw(st.integers(min_value=0, max_value=5)),
                    )
                    data.append(d)
                    jobs.append(
                        Job(
                            job_id=k,
                            name=f"j{k}",
                            tcp=draw(st.floats(min_value=0.0, max_value=3.0)),
                            data_ids=[d.data_id],
                            num_tasks=draw(st.integers(min_value=1, max_value=50)),
                            arrival_time=draw(st.floats(min_value=0.0, max_value=1e5)),
                            pool=draw(st.sampled_from(["a", "b"])),
                            read_fraction=draw(st.floats(min_value=0.1, max_value=1.0)),
                        )
                    )
                else:
                    jobs.append(
                        Job(
                            job_id=k,
                            name=f"j{k}",
                            tcp=0.0,
                            num_tasks=draw(st.integers(min_value=1, max_value=8)),
                            cpu_seconds_noinput=draw(st.floats(min_value=0.1, max_value=1e4)),
                        )
                    )
            return Workload(jobs=jobs, data=data)

        @given(random_wl())
        @settings(max_examples=40, deadline=None)
        def check(w):
            w2 = workload_from_dict(workload_to_dict(w))
            assert w2.jobs == w.jobs
            assert w2.data == w.data

        check()


class TestClusterRoundTrip:
    def test_paper_testbed_roundtrip(self):
        c = build_paper_testbed(9, c1_medium_fraction=1 / 3, seed=4)
        c2 = cluster_from_dict(cluster_to_dict(c))
        assert c2.num_machines == c.num_machines
        assert c2.num_stores == c.num_stores
        assert np.allclose(c2.cpu_cost_vector(), c.cpu_cost_vector())
        assert np.allclose(c2.throughput_vector(), c.throughput_vector())
        # derived matrices identical
        assert np.allclose(c2.network.ms_cost, c.network.ms_cost)
        assert np.allclose(c2.network.bandwidth, c.network.bandwidth)

    def test_remote_store_and_overrides_survive(self, tmp_path):
        from repro.cluster.builder import ClusterBuilder
        from repro.cluster.topology import Topology

        topo = Topology.of(["za", "zb"])
        topo.set_bandwidth("za", "zb", 123.0)
        topo.set_rtt("za", "za", 0.9)
        b = ClusterBuilder(topology=topo)
        b.add_machine("m0", ecu=2.0, cpu_cost=1e-5, zone="za")
        b.add_remote_store("s3", capacity_mb=5000.0, zone="zb")
        c = b.build()
        p = tmp_path / "c.json"
        save_cluster(c, p)
        c2 = load_cluster(p)
        assert c2.num_stores == 2
        assert not c2.stores[1].is_local
        assert c2.topology.bandwidth_mbps("za", "zb") == 123.0
        assert c2.topology.rtt_ms("za", "za") == 0.9

    def test_loaded_cluster_runs_a_simulation(self):
        from repro.hadoop.sim import HadoopSimulator, SimConfig
        from repro.schedulers import FifoScheduler

        c = cluster_from_dict(cluster_to_dict(build_paper_testbed(6, seed=1)))
        w = workload_from_dict(workload_to_dict(table4_jobs()))
        res = HadoopSimulator(c, w, FifoScheduler(), SimConfig(placement_seed=1)).run()
        assert res.metrics.tasks_run == 1608
