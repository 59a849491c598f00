"""``python -m repro bench`` — scenario shape, schema and the gate."""

import json

import pytest

from repro.cli import main
from repro.lp.scipy_backend import HIGHS_VERSION
from repro.perf.bench import (
    HISTORY_SCHEMA,
    REL_TOL,
    SCHEMA,
    _bench_scaling,
    append_history,
    build_bench_parser,
    build_block_scenario,
    build_scenario,
    history_row,
    scaling_history_rows,
)

#: top-level keys every repro.bench/1 document must carry
SCHEMA_KEYS = {
    "schema",
    "quick",
    "scenario",
    "cold",
    "equivalence",
    "highs",
    "sweep",
    "scaling",
    "gate",
}


class TestScenario:
    def test_quick_scenario_shape(self):
        cluster, workload, epoch_length, meta = build_scenario(quick=True)
        assert meta["machines"] == 12
        assert cluster.num_machines == 12
        assert len(workload.jobs) == meta["jobs"] == 2
        assert epoch_length == meta["epoch_length_s"] == 60.0

    def test_full_scenario_meets_acceptance_floor(self):
        _, _, _, meta = build_scenario(quick=False)
        # the acceptance criterion demands >= 20 machines and >= 8 epochs
        assert meta["machines"] >= 20
        assert meta["epochs_target"] >= 8

    def test_scenarios_are_deterministic(self):
        _, w1, _, _ = build_scenario(quick=True)
        _, w2, _, _ = build_scenario(quick=True)
        assert [j.tcp for j in w1.jobs] == [j.tcp for j in w2.jobs]

    def test_block_scenario_shape(self):
        cluster, workload, epoch_length, meta = build_block_scenario(
            machines=20, n_jobs=4, epochs_target=2
        )
        assert cluster.num_machines == meta["machines"] == 20
        # stores are scarce (one per job), so the LP stays small rather
        # than exploding to O(data x machines^2)
        assert cluster.num_stores == meta["stores"] == 4
        assert len(workload.jobs) == meta["jobs"] == 4
        assert epoch_length == meta["epoch_length_s"]

    def test_block_scenario_is_deterministic(self):
        _, w1, _, _ = build_block_scenario(machines=20, n_jobs=4)
        _, w2, _, _ = build_block_scenario(machines=20, n_jobs=4)
        assert [j.tcp for j in w1.jobs] == [j.tcp for j in w2.jobs]


class TestParser:
    def test_defaults(self):
        args = build_bench_parser().parse_args([])
        assert args.out == "BENCH_epoch.json"
        assert not args.quick and args.workers is None
        assert args.history == "BENCH_history.jsonl" and not args.no_history
        assert args.trace is None and args.metrics is None
        # the scaling section is opt-in
        assert not args.scaling

    def test_flags(self):
        args = build_bench_parser().parse_args(
            ["--quick", "--out", "x.json", "--workers", "3",
             "--history", "h.jsonl", "--trace", "t.jsonl", "--metrics", "m.json"]
        )
        assert args.quick and args.out == "x.json" and args.workers == 3
        assert args.history == "h.jsonl"
        assert args.trace == "t.jsonl" and args.metrics == "m.json"

    def test_scaling_flag(self):
        assert build_bench_parser().parse_args(["--scaling"]).scaling is True


#: a minimal repro.bench/1 document with every field history_row reads
FAKE_DOC = {
    "quick": True,
    "scenario": {"machines": 12},
    "cold": {"epochs": 8, "wall_s": 2.0},
    "highs": {"cold_wall_s": 0.5},
    "sweep": {"serial_points_per_s": 10.0, "parallel_points_per_s": 30.0},
    "gate": {"ok": True},
}


class TestHistory:
    def test_row_schema_and_fields(self):
        row = history_row(FAKE_DOC)
        assert row["schema"] == HISTORY_SCHEMA == "repro.bench-history/1"
        assert row["ts"].endswith("+00:00")  # real UTC timestamp
        assert row["machines"] == 12 and row["epochs"] == 8
        assert row["cold_wall_s"] == 2.0 and row["gate_ok"] is True
        assert "highs_presolve_wall_s" not in row

    def test_row_records_host_facts(self):
        host = history_row(FAKE_DOC)["host"]
        assert host["highs"] == HIGHS_VERSION
        assert host["highs"].count(".") == 2
        assert {"nproc", "python", "numpy", "scipy", "git_sha"} <= host.keys()
        sha = host["git_sha"]  # None only outside a git work tree
        assert sha is None or len(sha.removesuffix("-dirty")) == 40

    def test_append_is_append_only_jsonl(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        append_history(FAKE_DOC, path)
        append_history(FAKE_DOC, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert all(r["schema"] == HISTORY_SCHEMA for r in rows)

    def test_scaling_rows_one_per_size(self, tmp_path):
        doc = dict(
            FAKE_DOC,
            scaling=[
                {"machines": 20, "events": 100, "events_per_s": 50.0},
                {"machines": 100, "events": 900, "events_per_s": 45.0},
            ],
        )
        rows = scaling_history_rows(doc)
        assert [r["machines"] for r in rows] == [20, 100]
        assert all(
            r["schema"] == HISTORY_SCHEMA and r["kind"] == "scaling"
            for r in rows
        )
        # append_history interleaves them after the main row
        path = tmp_path / "BENCH_history.jsonl"
        append_history(doc, path)
        kinds = [
            json.loads(line)["kind"] for line in path.read_text().splitlines()
        ]
        assert kinds == ["bench", "scaling", "scaling"]
        assert scaling_history_rows(FAKE_DOC) == []


class TestScaling:
    def test_rows_split_out_the_lp_solves(self):
        (row,) = _bench_scaling(sizes=(20,))
        assert row["machines"] == 20 and row["epochs"] >= 1 and row["events"] > 0
        assert {"epoch_solve_s", "solve_wall_s", "sim_wall_s", "events_per_s"} <= row.keys()
        # the simulator-only time is the wall time less the in-sim LP solves
        assert 0.0 < row["sim_only_s"] < row["sim_wall_s"]
        assert row["sim_only_events_per_s"] == pytest.approx(
            row["events"] / row["sim_only_s"]
        )
        assert row["sim_only_events_per_s"] > row["events_per_s"]


class TestQuickBenchEndToEnd:
    def test_quick_bench_writes_schema_and_passes_gate(self, tmp_path, capsys):
        out = tmp_path / "BENCH_epoch.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "--quick", "--out", str(out),
                     "--history", str(history)])
        assert code == 0, capsys.readouterr()
        (row,) = [json.loads(line) for line in history.read_text().splitlines()]
        assert row["schema"] == HISTORY_SCHEMA and row["quick"] is True
        doc = json.loads(out.read_text())
        assert set(doc) == SCHEMA_KEYS
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is True
        assert doc["gate"]["ok"] is True
        # the reference simplex re-solves every HiGHS epoch model to the
        # same objective
        assert doc["equivalence"]["max_rel_objective_delta"] <= REL_TOL
        assert doc["cold"]["epochs"] == doc["highs"]["epochs"] >= 8
        assert doc["sweep"]["results_identical"] is True
        # the opt-in section stays null (but present) when not requested
        assert doc["scaling"] is None
