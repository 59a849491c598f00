"""Tests for chaos injection, the invariant oracle and the soak harness."""

import numpy as np
import pytest

from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.jobtracker import JobState
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.obs.registry import MetricsRegistry, use_registry
from repro.resilience import (
    ChaosPlan,
    InvariantViolation,
    PartitionEvent,
    ReadFaultEvent,
    SoakConfig,
    StragglerEvent,
    build_scenario,
    check_sim_invariants,
    random_chaos_plan,
    run_soak,
    soak_summary,
)
from repro.resilience.soak import build_soak_cluster
from repro.schedulers import FifoScheduler
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def cluster():
    b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
    for i in range(4):
        b.add_machine(
            f"m{i}", ecu=2.0, cpu_cost=1e-5,
            zone="za" if i < 2 else "zb", map_slots=2,
        )
    return b.build()


def free_workload(tasks=8, cpu=400.0):
    jobs = [Job(job_id=0, name="pi", tcp=0.0, num_tasks=tasks, cpu_seconds_noinput=cpu)]
    return Workload(jobs=jobs, data=[])


def data_workload():
    data = [DataObject(data_id=0, name="d", size_mb=320.0, origin_store=0)]
    jobs = [Job(job_id=0, name="scan", tcp=1.0, data_ids=[0], num_tasks=5)]
    return Workload(jobs=jobs, data=data)


class TestEvents:
    def test_straggler_validation(self):
        with pytest.raises(ValueError):
            StragglerEvent(machine_id=0, start=10.0, end=5.0, slowdown=2.0)
        with pytest.raises(ValueError, match="slowdown"):
            StragglerEvent(machine_id=0, start=0.0, end=5.0, slowdown=0.5)

    def test_straggler_window(self):
        s = StragglerEvent(machine_id=0, start=10.0, end=20.0, slowdown=3.0)
        assert not s.active(9.9) and s.active(10.0) and not s.active(20.0)

    def test_partition_needs_two_zones(self):
        with pytest.raises(ValueError, match="distinct"):
            PartitionEvent(zone_a="z", zone_b="z", start=0.0, end=1.0)

    def test_partition_severs_both_directions(self):
        p = PartitionEvent(zone_a="za", zone_b="zb", start=0.0, end=100.0)
        assert p.severs("za", "zb", 50.0)
        assert p.severs("zb", "za", 50.0)
        assert not p.severs("za", "za", 50.0)
        assert not p.severs("za", "zb", 150.0)

    def test_plan_validates_references(self, cluster):
        plan = ChaosPlan(stragglers=[StragglerEvent(99, 0.0, 1.0, 2.0)])
        with pytest.raises(ValueError, match="unknown machine"):
            plan.validate(cluster)
        plan = ChaosPlan(partitions=[PartitionEvent("za", "nope", 0.0, 1.0)])
        with pytest.raises(ValueError, match="unknown zone"):
            plan.validate(cluster)
        plan = ChaosPlan(read_faults=[ReadFaultEvent(99, 0.0, 1.0)])
        with pytest.raises(ValueError, match="unknown store"):
            plan.validate(cluster)

    def test_compute_factor_multiplies_overlaps(self):
        plan = ChaosPlan(
            stragglers=[
                StragglerEvent(0, 0.0, 100.0, 2.0),
                StragglerEvent(0, 50.0, 100.0, 3.0),
                StragglerEvent(1, 0.0, 100.0, 10.0),
            ]
        )
        assert plan.compute_factor(0, 10.0) == 2.0
        assert plan.compute_factor(0, 60.0) == 6.0
        assert plan.compute_factor(0, 100.0) == 1.0


class TestDeterminism:
    """Satellite: all chaos randomness flows through an explicit Generator."""

    def test_same_generator_same_plan(self, cluster):
        a = random_chaos_plan(cluster, 2000.0, np.random.default_rng(5),
                              mean_time_to_failure_s=500.0)
        b = random_chaos_plan(cluster, 2000.0, np.random.default_rng(5),
                              mean_time_to_failure_s=500.0)
        assert a.failures.events == b.failures.events
        assert a.stragglers == b.stragglers
        assert a.partitions == b.partitions
        assert a.read_faults == b.read_faults

    def test_different_seeds_differ(self, cluster):
        a = random_chaos_plan(cluster, 2000.0, np.random.default_rng(5))
        b = random_chaos_plan(cluster, 2000.0, np.random.default_rng(6))
        assert (a.stragglers, a.partitions, a.read_faults) != (
            b.stragglers, b.partitions, b.read_faults,
        )

    def test_plan_validates_against_its_cluster(self, cluster):
        plan = random_chaos_plan(cluster, 2000.0, np.random.default_rng(0),
                                 mean_time_to_failure_s=500.0)
        plan.validate(cluster)
        assert len(plan) == (
            len(plan.failures) + len(plan.stragglers)
            + len(plan.partitions) + len(plan.read_faults)
        )

    def test_horizon_validation(self, cluster):
        with pytest.raises(ValueError):
            random_chaos_plan(cluster, 0.0, np.random.default_rng(0))


class TestStragglers:
    def test_straggler_stretches_makespan(self, cluster):
        base = HadoopSimulator(cluster, free_workload(), FifoScheduler(), SimConfig()).run()
        plan = ChaosPlan(
            stragglers=[StragglerEvent(m, 0.0, 1e6, 8.0) for m in range(4)]
        )
        slow = HadoopSimulator(
            cluster, free_workload(), FifoScheduler(), SimConfig(), chaos=plan
        ).run()
        assert slow.metrics.makespan > base.metrics.makespan * 4
        # stragglers slow wall time but burn the same billed CPU seconds
        assert slow.metrics.total_cost == pytest.approx(base.metrics.total_cost)

    def test_straggler_counted(self, cluster):
        registry = MetricsRegistry()
        plan = ChaosPlan(stragglers=[StragglerEvent(0, 0.0, 1e6, 4.0)])
        with use_registry(registry):
            sim = HadoopSimulator(
                cluster, free_workload(), FifoScheduler(), SimConfig(), chaos=plan
            )
            sim.run()
        assert sim.metrics.chaos_faults_injected > 0
        assert registry.counter("chaos_faults_injected_total").value(kind="straggler") > 0


class TestReadFaults:
    def test_store_fault_kills_then_recovers(self, cluster):
        # all reads from store 0 fail for the first 200s; tasks burn the
        # read, re-queue with backoff, and complete once the window closes
        plan = ChaosPlan(
            read_faults=[ReadFaultEvent(store_id=0, start=0.0, end=200.0)],
            retry_backoff_s=30.0,
        )
        sim = HadoopSimulator(
            cluster, data_workload(), FifoScheduler(),
            SimConfig(replication=1, populate="origin"), chaos=plan,
        )
        res = sim.run()
        assert sim.jobtracker.all_complete()
        assert sim.metrics.chaos_faults_injected > 0
        assert res.metrics.killed_attempts > 0
        assert res.metrics.tasks_run == 5
        assert res.metrics.makespan > 200.0
        assert check_sim_invariants(sim) == []

    def test_partition_blocks_cross_zone_reads(self, cluster):
        # data lives in za; partition za|zb for the first 300s: zb machines
        # fail their reads, za machines still succeed
        plan = ChaosPlan(
            partitions=[PartitionEvent("za", "zb", start=0.0, end=300.0)]
        )
        sim = HadoopSimulator(
            cluster, data_workload(), FifoScheduler(),
            SimConfig(replication=1, populate="origin"), chaos=plan,
        )
        sim.run()
        assert sim.jobtracker.all_complete()
        assert check_sim_invariants(sim) == []

    def test_clean_run_injects_nothing(self, cluster):
        sim = HadoopSimulator(
            cluster, data_workload(), FifoScheduler(),
            SimConfig(replication=1), chaos=ChaosPlan(),
        )
        sim.run()
        assert sim.metrics.chaos_faults_injected == 0
        assert check_sim_invariants(sim) == []


class TestInvariantOracle:
    def test_clean_sim_passes(self, cluster):
        sim = HadoopSimulator(cluster, free_workload(), FifoScheduler(), SimConfig())
        sim.run()
        assert check_sim_invariants(sim) == []

    def test_oracle_catches_lost_task(self, cluster):
        sim = HadoopSimulator(cluster, free_workload(), FifoScheduler(), SimConfig())
        sim.run()
        job = sim.jobtracker.jobs[0]
        job.completed_maps -= 1  # corrupt: pretend one completion vanished
        violations = check_sim_invariants(sim)
        assert any(v.name == "task_conservation" for v in violations)

    def test_oracle_catches_queue_leak(self, cluster):
        sim = HadoopSimulator(cluster, free_workload(), FifoScheduler(), SimConfig())
        sim.run()
        job = sim.jobtracker.jobs[0]
        job.pending.append(job.tasks[0])  # corrupt: a task left in the queue
        violations = check_sim_invariants(sim)
        assert any(v.name == "queue_leak" for v in violations)

    def test_oracle_catches_lost_block(self, cluster):
        sim = HadoopSimulator(
            cluster, data_workload(), FifoScheduler(), SimConfig(replication=1)
        )
        sim.run()
        sim.hdfs.blocks[0].replicas.clear()  # corrupt: all replicas gone
        violations = check_sim_invariants(sim)
        assert any(v.name == "lost_block" for v in violations)

    def test_oracle_catches_negative_charge(self, cluster):
        sim = HadoopSimulator(cluster, free_workload(), FifoScheduler(), SimConfig())
        sim.run()
        # corrupt one frozen record past its constructor validation
        object.__setattr__(sim.metrics.ledger.records[0], "amount", -1.0)
        violations = check_sim_invariants(sim)
        assert any(v.name == "billing_consistency" for v in violations)

    def test_violation_renders(self):
        v = InvariantViolation("queue_leak", "job 'x' has 2 pending")
        assert "queue_leak" in str(v) and "pending" in str(v)


class TestSoak:
    def test_builders_are_seed_deterministic(self):
        c1 = build_soak_cluster(4, np.random.default_rng(3))
        c2 = build_soak_cluster(4, np.random.default_rng(3))
        assert [m.cpu_cost for m in c1.machines] == [m.cpu_cost for m in c2.machines]
        config = SoakConfig(num_machines=4, num_jobs=3, horizon_s=2000.0)
        w1 = build_scenario(3, config).workload
        w2 = build_scenario(3, config).workload
        assert [j.arrival_time for j in w1.jobs] == [j.arrival_time for j in w2.jobs]
        assert [d.size_mb for d in w1.data] == [d.size_mb for d in w2.data]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="force"):
            SoakConfig(force="sometimes")
        with pytest.raises(ValueError, match="seed"):
            SoakConfig(seeds=())
        with pytest.raises(ValueError, match="targets"):
            SoakConfig(targets=("sim", "service"))
        with pytest.raises(ValueError, match="one seed"):
            SoakConfig(targets=("service",), seeds=(0, 1))

    def test_soak_seed_clean(self):
        cfg = SoakConfig(
            seeds=(0,), num_machines=4, num_jobs=3, horizon_s=2000.0
        )
        [outcome] = run_soak(cfg)
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.faults_planned > 0

    def test_soak_forced_primary_failure_uses_fallback(self):
        cfg = SoakConfig(
            seeds=(0,), num_machines=4, num_jobs=3, horizon_s=2000.0, force="primary"
        )
        [outcome] = run_soak(cfg)
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.solver_failures > 0
        assert outcome.solver_fallbacks > 0
        assert outcome.chaos_faults_injected > 0
        assert outcome.epochs_degraded == 0  # the fallback always saves it

    def test_soak_forced_chain_failure_degrades(self):
        cfg = SoakConfig(
            seeds=(1,), num_machines=4, num_jobs=3, horizon_s=2000.0, force="all"
        )
        [outcome] = run_soak(cfg)
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.epochs_degraded > 0

    def test_short_epochs_requeue_and_pass(self, monkeypatch):
        calls = []
        requeue = JobState.requeue

        def counting(state, task):
            calls.append(task.key)
            requeue(state, task)

        monkeypatch.setattr(JobState, "requeue", counting)
        outcomes = run_soak(SoakConfig(seeds=(0, 1, 2), epoch_length=30.0))
        assert calls
        assert all(o.ok for o in outcomes), [str(v) for o in outcomes for v in o.violations]

    def test_lost_requeue_is_a_violation_not_a_hang(self, monkeypatch):
        monkeypatch.setattr(JobState, "requeue", lambda state, task: None)
        outcomes = run_soak(SoakConfig(seeds=(0, 1, 2), epoch_length=30.0))
        crashed = [v for o in outcomes for v in o.violations if v.name == "run_crashed"]
        assert crashed and all("no pending or running task" in str(v) for v in crashed)

    def test_multi_seed_summary(self):
        cfg = SoakConfig(seeds=(0, 1), num_machines=4, num_jobs=2,
                         horizon_s=1500.0)
        outcomes = run_soak(cfg)
        assert [o.seed for o in outcomes] == [0, 1]
        summary = soak_summary(outcomes)
        assert summary["seeds"] == 2
        assert summary["violations"] == sum(len(o.violations) for o in outcomes)


class TestBackoffJitter:
    """The retry backoff is a pure function of the plan (seed-carried rng)."""

    def test_zero_jitter_is_the_fixed_base(self):
        plan = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.0)
        assert [plan.next_backoff() for _ in range(5)] == [30.0] * 5

    def test_same_seed_replays_the_exact_sequence(self):
        a = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.25, backoff_seed=42)
        b = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.25, backoff_seed=42)
        assert [a.next_backoff() for _ in range(20)] == [
            b.next_backoff() for _ in range(20)
        ]

    def test_different_seeds_spread_the_retries(self):
        a = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.25, backoff_seed=1)
        b = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.25, backoff_seed=2)
        assert [a.next_backoff() for _ in range(8)] != [
            b.next_backoff() for _ in range(8)
        ]

    def test_backoff_stays_inside_the_jitter_band(self):
        plan = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.25, backoff_seed=7)
        draws = [plan.next_backoff() for _ in range(200)]
        assert all(30.0 <= d <= 30.0 * 1.25 for d in draws)
        assert len(set(draws)) > 1  # it actually jitters

    def test_backoff_rng_is_plan_private_not_ambient(self):
        """FLOW001 guard: the jitter draws never touch global numpy RNG."""
        import numpy as np

        np.random.seed(123)
        before = np.random.get_state()[1][:8].tolist()
        plan = ChaosPlan(retry_backoff_s=30.0, backoff_jitter=0.5, backoff_seed=3)
        for _ in range(50):
            plan.next_backoff()
        assert np.random.get_state()[1][:8].tolist() == before

    def test_chaos_module_is_flow001_clean(self):
        """The determinism pass finds no ambient RNG/clock reads reachable
        from the simulator entry point through the chaos path."""
        from pathlib import Path

        from repro.lint.flow import analyze_paths

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = analyze_paths(
            [src / "resilience" / "chaos.py"], entry_points=["next_backoff"]
        )
        assert [f for f in report.findings if f.rule in ("FLOW001", "FLOW002")] == []
