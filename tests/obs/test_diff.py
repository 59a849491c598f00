"""Trace-diff tests: stat extraction, gating semantics, the CLI gate.

Runs on a trio of traces of one tiny deterministic LiPS scenario:
base/same are identical seeded runs, slow doubles dollar rates and halves
throughput.
"""

import json

import pytest

from repro.cli import main
from repro.cluster.builder import ClusterBuilder
from repro.cluster.topology import Topology
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.obs.diff import (
    DEFAULT_THRESHOLDS,
    DiffEntry,
    diff_traces,
    stats_from_trace,
)
from repro.obs.export import load_jsonl
from repro.obs.trace import Tracer
from repro.schedulers import LipsScheduler
from repro.workload.job import DataObject, Job, Workload


def _write_trio(outdir):
    """Trace the scenario three times into ``outdir``; ``{name: path}``.

    ``base`` and ``same`` are identical runs (their diff must pass);
    ``slow`` doubles every machine's dollar rate and halves its throughput
    — an unambiguous >10 % cost *and* makespan regression the gate must
    catch.
    """
    paths = {}
    for name, cost_scale, speed_scale in (
        ("base", 1.0, 1.0),
        ("same", 1.0, 1.0),
        ("slow", 2.0, 0.5),
    ):
        b = ClusterBuilder(topology=Topology.of(["za", "zb"]), store_capacity_mb=1e6)
        b.add_machine("a0", ecu=2.0 * speed_scale, cpu_cost=5e-5 * cost_scale, zone="za")
        b.add_machine("b0", ecu=5.0 * speed_scale, cpu_cost=1e-5 * cost_scale, zone="zb")
        data = [DataObject(data_id=0, name="d", size_mb=128.0, origin_store=0)]
        jobs = [
            Job(job_id=0, name="scan", tcp=0.5, data_ids=[0], num_tasks=2),
            Job(job_id=1, name="pi", tcp=0.0, num_tasks=1,
                cpu_seconds_noinput=50.0, arrival_time=10.0),
        ]
        paths[name] = str(outdir / f"{name}.jsonl")
        with Tracer.to_path(paths[name]) as tracer:
            HadoopSimulator(
                b.build(),
                Workload(jobs=jobs, data=data),
                LipsScheduler(epoch_length=60.0),
                SimConfig(placement_seed=2, speculative=False, tracer=tracer),
            ).run()
    return paths


@pytest.fixture(scope="module")
def trio(tmp_path_factory):
    paths = _write_trio(tmp_path_factory.mktemp("trio"))
    return {name: load_jsonl(path) for name, path in paths.items()}


class TestStatsFromTrace:
    def test_headline_stats_present(self, trio):
        stats = stats_from_trace(trio["base"])
        for key in ("total_cost", "makespan", "tasks_run", "lp_solves",
                    "lp_iterations", "cost.cpu"):
            assert key in stats
        assert any(k.startswith("critpath.") for k in stats)

    def test_identical_runs_produce_identical_stats(self, trio):
        base = stats_from_trace(trio["base"])
        same = stats_from_trace(trio["same"])
        # wall-clock stats are the one legitimate difference
        for stats in (base, same):
            stats.pop("lp_iterations", None)
        assert base == same

    def test_pre_ledger_trace_falls_back_to_span_ends(self):
        records = [
            {"type": "span", "cat": "task", "name": "attempt",
             "ts": 5.0, "dur": 7.0, "machine": 0, "job": 0},
        ]
        stats = stats_from_trace(records)
        assert stats["makespan"] == 12.0
        assert "total_cost" not in stats


class TestGating:
    def test_identical_pair_is_ok(self, trio):
        diff = diff_traces(trio["base"], trio["same"])
        assert diff.ok and diff.regressions == []
        assert "verdict: OK" in diff.render()

    def test_slowdown_is_caught(self, trio):
        diff = diff_traces(trio["base"], trio["slow"])
        assert not diff.ok
        regressed = {e.stat for e in diff.regressions}
        assert "total_cost" in regressed and "makespan" in regressed
        assert "REGRESSED" in diff.render()

    def test_improvements_never_gate(self, trio):
        # swap the pair: slow -> base is a big improvement, not a regression
        diff = diff_traces(trio["slow"], trio["base"])
        assert diff.ok

    def test_threshold_override_and_ungating(self, trio):
        tight = diff_traces(trio["base"], trio["slow"],
                            thresholds={"makespan": 10.0, "total_cost": 10.0})
        assert "makespan" not in {e.stat for e in tight.regressions}
        ungated = diff_traces(
            trio["base"], trio["slow"],
            thresholds={k: None for k in DEFAULT_THRESHOLDS},
        )
        assert ungated.ok

    def test_entry_relative_handles_zero_base(self):
        entry = DiffEntry(stat="x", base=0.0, candidate=1.0, threshold=0.05)
        assert entry.relative == float("inf") and entry.regressed
        flat = DiffEntry(stat="x", base=0.0, candidate=0.0, threshold=0.05)
        assert flat.relative == 0.0 and not flat.regressed

    def test_to_dict_is_json_serialisable(self, trio):
        doc = diff_traces(trio["base"], trio["slow"]).to_dict()
        assert doc["ok"] is False
        json.dumps(doc)


class TestCliGate:
    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        return _write_trio(tmp_path_factory.mktemp("cli-trio"))

    def test_identical_pair_exits_zero(self, paths, capsys):
        rc = main(["diff", paths["base"], paths["same"]])
        assert rc == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_regressed_pair_exits_nonzero(self, paths, capsys):
        rc = main(["diff", paths["base"], paths["slow"]])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_output(self, paths, tmp_path, capsys):
        out = tmp_path / "diff.json"
        rc = main(["diff", paths["base"], paths["slow"], "--json", str(out)])
        assert rc == 1
        assert json.loads(out.read_text())["ok"] is False
        capsys.readouterr()

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert rc == 2
        capsys.readouterr()
