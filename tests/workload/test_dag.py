"""Tests for job DAGs and the levelling reduction."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload.dag import JobDag, chain, schedule_dag_offline
from repro.workload.job import DataObject, Job, Workload


@pytest.fixture
def workload():
    data = [
        DataObject(data_id=0, name="raw", size_mb=640.0, origin_store=0),
        DataObject(data_id=1, name="mid", size_mb=320.0, origin_store=1),
    ]
    jobs = [
        Job(job_id=0, name="extract", tcp=0.3, data_ids=[0], num_tasks=10),
        Job(job_id=1, name="clean", tcp=0.3, data_ids=[0], num_tasks=10),
        Job(job_id=2, name="join", tcp=0.8, data_ids=[1], num_tasks=5),
        Job(job_id=3, name="report", tcp=0.0, num_tasks=1, cpu_seconds_noinput=50.0),
    ]
    return Workload(jobs=jobs, data=data)


class TestJobDag:
    def test_levels_without_edges_single_generation(self, workload):
        dag = JobDag(workload)
        assert dag.levels() == [[0, 1, 2, 3]]

    def test_diamond_levels(self, workload):
        dag = JobDag(workload)
        dag.add_dependency(0, 2)
        dag.add_dependency(1, 2)
        dag.add_dependency(2, 3)
        assert dag.levels() == [[0, 1], [2], [3]]
        assert dag.critical_path_length() == 3

    def test_cycle_rejected(self, workload):
        dag = JobDag(workload)
        dag.add_dependency(0, 1)
        with pytest.raises(ValueError, match="cycle"):
            dag.add_dependency(1, 0)
        # the failed edge was rolled back
        assert dag.num_edges == 1

    def test_self_dependency_rejected(self, workload):
        dag = JobDag(workload)
        with pytest.raises(ValueError):
            dag.add_dependency(0, 0)

    def test_unknown_job_rejected(self, workload):
        dag = JobDag(workload)
        with pytest.raises(KeyError):
            dag.add_dependency(0, 99)

    def test_pred_succ_queries(self, workload):
        dag = JobDag(workload)
        dag.add_dependency(0, 2)
        dag.add_dependency(1, 2)
        assert dag.predecessors(2) == [0, 1]
        assert dag.successors(0) == [2]

    def test_chain_builder(self, workload):
        dag = chain(workload)
        assert dag.levels() == [[0], [1], [2], [3]]

    def test_sub_workload_reindexes(self, workload):
        dag = JobDag(workload)
        dag.add_dependency(0, 2)
        sub, back = dag.sub_workload([2, 3])
        assert sub.num_jobs == 2
        assert back == {0: 2, 1: 3}
        assert sub.jobs[0].data_ids == [0]  # "mid" re-indexed to 0
        assert sub.data[0].name == "mid"

    def test_sub_workload_keeps_job_fields(self, workload):
        workload.jobs[2].priority = 3
        workload.jobs[2].arrival_time = 120.0
        workload.jobs[2].read_fraction = 0.5
        sub, _ = JobDag(workload).sub_workload([2])
        job = sub.jobs[0]
        assert (job.priority, job.arrival_time, job.read_fraction) == (3, 120.0, 0.5)
        assert (job.name, job.tcp, job.num_tasks) == ("join", 0.8, 5)

    def test_sub_workload_shares_data_once(self, workload):
        dag = JobDag(workload)
        sub, _ = dag.sub_workload([0, 1])  # both read "raw"
        assert sub.num_data == 1
        assert sub.jobs[0].data_ids == sub.jobs[1].data_ids == [0]


@st.composite
def jobs_and_edges(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ids = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=40))
    return n, pairs


@settings(max_examples=150, deadline=None)
@given(jobs_and_edges())
def test_levels_and_cycle_checks_match_networkx(case):
    n, pairs = case
    jobs = [Job(job_id=j, name=f"j{j}", tcp=0.0, cpu_seconds_noinput=1.0) for j in range(n)]
    dag = JobDag(Workload(jobs=jobs, data=[]))
    oracle = nx.DiGraph()
    oracle.add_nodes_from(range(n))
    for before, after in pairs:
        closes_cycle = nx.has_path(oracle, after, before)
        if closes_cycle:
            with pytest.raises(ValueError, match="cycle"):
                dag.add_dependency(before, after)
        else:
            dag.add_dependency(before, after)
            oracle.add_edge(before, after)
    assert dag.num_edges == oracle.number_of_edges()
    assert dag.levels() == [sorted(gen) for gen in nx.topological_generations(oracle)]
    for j in range(n):
        assert dag.predecessors(j) == sorted(oracle.predecessors(j))
        assert dag.successors(j) == sorted(oracle.successors(j))


class TestScheduleDagOffline:
    def test_every_level_scheduled(self, two_zone_cluster, workload):
        dag = JobDag(workload)
        dag.add_dependency(0, 2)
        dag.add_dependency(1, 2)
        dag.add_dependency(2, 3)
        res = schedule_dag_offline(two_zone_cluster, dag)
        assert res.num_levels == 3
        assert res.total_cost > 0
        assert res.makespan_estimate > 0

    def test_costs_sum(self, two_zone_cluster, workload):
        dag = chain(workload)
        res = schedule_dag_offline(two_zone_cluster, dag)
        assert res.total_cost == pytest.approx(sum(l.cost for l in res.levels))

    def test_independent_dag_matches_flat_schedule(self, two_zone_cluster, workload):
        """No edges: one level == plain co-scheduling of the whole set."""
        from repro.core.co_offline import solve_co_offline
        from repro.core.model import SchedulingInput

        dag = JobDag(workload)
        res = schedule_dag_offline(two_zone_cluster, dag)
        inp = SchedulingInput.from_parts(two_zone_cluster, workload)
        flat = solve_co_offline(inp, placement_tiebreak=1e-9)
        assert res.total_cost == pytest.approx(
            flat.cost_breakdown(inp).real_total, rel=1e-6
        )

    def test_carried_placement_avoids_double_move(self, two_zone_cluster):
        """Two chained jobs on the same object: the move is paid once."""
        data = [DataObject(data_id=0, name="shared", size_mb=1024.0, origin_store=0)]
        jobs = [
            Job(job_id=0, name="pass1", tcp=1.0, data_ids=[0], num_tasks=8),
            Job(job_id=1, name="pass2", tcp=1.0, data_ids=[0], num_tasks=8),
        ]
        w = Workload(jobs=jobs, data=data)
        res = schedule_dag_offline(two_zone_cluster, chain(w))
        # cross-zone move of 1 GB costs ~0.01$; paying it twice would show
        # up as the second level costing at least as much as the first
        assert res.num_levels == 2
        level_costs = [l.cost for l in res.levels]
        # second level found its data already in the cheap zone
        assert level_costs[1] <= level_costs[0]
