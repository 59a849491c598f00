"""The analyzer against the real repo: entry resolution, reachability,
and the gating contract CI relies on (no flow findings)."""

from pathlib import Path

import pytest

from repro.lint.flow import analyze, build_call_graph, build_symbol_table
from repro.lint.flow.engine import DEFAULT_ENTRY_POINTS, resolve_entry_points

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC = REPO_ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def graph():
    return build_call_graph(build_symbol_table([SRC]))


def test_default_entry_points_resolve_uniquely(graph):
    resolved = resolve_entry_points(graph.table, DEFAULT_ENTRY_POINTS)
    assert resolved["HadoopSimulator.run"] == ["repro.hadoop.sim:HadoopSimulator.run"]
    assert resolved["epoch.plan_epoch"] == ["repro.core.epoch:plan_epoch"]
    assert resolved["EpochController.run"] == ["repro.core.epoch:EpochController.run"]
    assert resolved["run_soak"] == ["repro.resilience.soak:run_soak"]


def test_soak_entry_reaches_every_target(graph):
    reach = graph.reachable(["repro.resilience.soak:run_soak"])
    # the chaos soak's scenario and fault code, not only the service path
    for qname in (
        "repro.resilience.soak:build_soak_cluster",
        "repro.resilience.chaos:random_chaos_plan",
        "repro.resilience.chaos:FaultInjectingBackend.solve_assembled",
        "repro.hadoop.sim:HadoopSimulator.run",
        "repro.core.epoch:EpochController.run",
        "repro.serve.service:SchedulingService.recover",
        "repro.resilience.invariants:check_service_invariants",
    ):
        assert qname in reach, qname


def test_epoch_step_reaches_the_lp_and_the_greedy_plan(graph):
    reach = graph.reachable(["repro.core.epoch:plan_epoch"])
    assert "repro.core.co_online:solve_co_online" in reach
    assert "repro.resilience.degraded:greedy_epoch_solution" in reach


def test_simulator_reaches_tracer_and_metrics(graph):
    reach = graph.reachable(["repro.hadoop.sim:HadoopSimulator.run"])
    assert "repro.obs.trace:Tracer.emit" in reach
    assert "repro.obs.registry:Counter.inc" in reach


def test_entry_points_reach_a_substantial_program_slice(graph):
    resolved = resolve_entry_points(graph.table, DEFAULT_ENTRY_POINTS)
    roots = [q for qs in resolved.values() for q in qs]
    reach = graph.reachable(roots)
    # the three roots cover the sim + solve core; a collapse here means
    # call resolution broke, not that the repo shrank
    assert len(reach) > 200


def test_repo_is_flow_clean(graph):
    report = analyze(graph.table, graph)
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.ok


def test_every_pool_task_is_analyzed(graph):
    # the three run_tasks workers; FLOW103 checks each one's call closure
    tasks = {edge.dst for edge in graph.pool_dispatches}
    assert {
        "repro.experiments.common:_scheduler_task",
        "repro.experiments.fig5_simulated_savings:_fig5_point",
        "repro.experiments.fig8_epoch_tradeoff:_fig8_point",
    } <= tasks
