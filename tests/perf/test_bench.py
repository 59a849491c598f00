"""``python -m repro bench`` — scenario shape, schema and the gate."""

import json

import pytest

import repro.perf.bench as bench
from repro.cli import main
from repro.lp.scipy_backend import HIGHS_VERSION, HighsBackend
from repro.perf.bench import (
    HISTORY_SCHEMA,
    SCHEMA,
    _bench_scaling,
    append_history,
    build_bench_parser,
    build_block_scenario,
    build_scenario,
    certify_solves,
    gate,
    history_rows,
)
from tests.lp.dense import dense_lp

#: top-level keys every repro.bench/2 document must carry
SCHEMA_KEYS = {"schema", "scenario", "highs", "certificate", "scaling", "gate"}


class TestScenario:
    def test_full_scenario_meets_acceptance_floor(self):
        cluster, workload, epoch_length, meta = build_scenario()
        # the acceptance criterion demands >= 20 machines and >= 8 epochs
        assert cluster.num_machines == meta["machines"] >= 20
        assert meta["epochs_target"] >= 8
        assert len(workload.jobs) == meta["jobs"] == 2
        assert epoch_length == meta["epoch_length_s"] == 60.0

    def test_scenarios_are_deterministic(self):
        _, w1, _, _ = build_scenario()
        _, w2, _, _ = build_scenario()
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
        assert args.history == "BENCH_history.jsonl" and not args.no_history
        assert args.trace is None and args.metrics is None

    def test_flags(self):
        args = build_bench_parser().parse_args(
            ["--out", "x.json", "--history", "h.jsonl", "--no-history",
             "--trace", "t.jsonl", "--metrics", "m.json"]
        )
        assert args.out == "x.json" and args.history == "h.jsonl"
        assert args.no_history
        assert args.trace == "t.jsonl" and args.metrics == "m.json"

    def test_scaling_flag(self):
        """The scaling row always runs: --scaling is gone, like --quick."""
        for flag in ("--scaling", "--quick"):
            with pytest.raises(SystemExit):
                build_bench_parser().parse_args([flag])


class TestGate:
    def test_no_solved_model_fails(self):
        """A bench that solved nothing proves nothing."""
        verdict = gate(certify_solves([]))
        assert verdict["ok"] is False
        assert verdict["checks"]["models_solved"] is False

    def test_non_optimal_solve_fails(self):
        # a model with an infeasible row: x >= 0 and -x >= 1 (written x <= -1)
        asm = dense_lp([1.0], [[1.0]], [-1.0], name="infeasible")
        result = HighsBackend().solve_assembled(asm)
        assert not result.is_optimal
        verdict = gate(certify_solves([(asm, result)]))
        assert verdict["ok"] is False
        assert verdict["checks"]["all_optimal"] is False
        assert verdict["checks"]["all_certified"] is False

    def test_certified_solves_pass(self):
        cluster, workload, epoch_length, _ = build_block_scenario(
            machines=20, n_jobs=4, epochs_target=2
        )
        backend = bench.CapturingHighs()
        bench._timed_epoch_loop(cluster, workload, epoch_length, backend)
        cert = certify_solves(backend.solves)
        assert cert["models"] == cert["certified"] == len(backend.solves) >= 1
        assert cert["non_optimal"] == 0
        assert gate(cert)["ok"] is True


#: a minimal repro.bench/2 document with every field history_rows reads
FAKE_DOC = {
    "scenario": {"machines": 20},
    "highs": {"epochs": 9, "wall_s": 0.5},
    "certificate": {"certified": 13, "wall_s": 0.01},
    "scaling": {"machines": 1000, "events": 900, "events_per_s": 45.0},
    "gate": {"ok": True},
}


class TestHistory:
    def test_row_schema_and_fields(self):
        bench_row, scaling_row = history_rows(FAKE_DOC)
        assert bench_row["schema"] == HISTORY_SCHEMA == "repro.bench-history/2"
        assert bench_row["ts"].endswith("+00:00")  # real UTC timestamp
        assert bench_row["kind"] == "bench" and scaling_row["kind"] == "scaling"
        assert bench_row["machines"] == 20 and bench_row["epochs"] == 9
        assert bench_row["highs_wall_s"] == 0.5 and bench_row["gate_ok"] is True
        assert bench_row["certified_models"] == 13
        assert scaling_row["machines"] == 1000 and scaling_row["events"] == 900

    def test_row_records_host_facts(self):
        host = history_rows(FAKE_DOC)[0]["host"]
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
        assert [r["kind"] for r in rows] == ["bench", "scaling"] * 2
        assert all(r["schema"] == HISTORY_SCHEMA for r in rows)

    def test_scaling_rows_one_per_size(self):
        """One size, one scaling row: the scaling section, flattened."""
        scaling = [r for r in history_rows(FAKE_DOC) if r["kind"] == "scaling"]
        assert len(scaling) == 1
        assert scaling[0].items() >= FAKE_DOC["scaling"].items()


class TestScaling:
    def test_rows_split_out_the_lp_solves(self):
        row = _bench_scaling(20, HighsBackend())
        assert row["machines"] == 20 and row["epochs"] >= 1 and row["events"] > 0
        assert {"epoch_solve_s", "solve_wall_s", "sim_wall_s", "events_per_s"} <= row.keys()
        # the simulator-only time is the wall time less the in-sim LP solves
        assert 0.0 < row["sim_only_s"] < row["sim_wall_s"]
        assert row["sim_only_events_per_s"] == pytest.approx(
            row["events"] / row["sim_only_s"]
        )
        assert row["sim_only_events_per_s"] > row["events_per_s"]


class TestBenchEndToEnd:
    def test_bench_writes_schema_and_passes_gate(self, tmp_path, capsys, monkeypatch):
        # the real scaling row runs 1000 machines; 20 keeps tier-1 quick
        monkeypatch.setattr(bench, "SCALING_MACHINES", 20)
        out = tmp_path / "BENCH_epoch.json"
        history = tmp_path / "BENCH_history.jsonl"
        code = main(["bench", "--out", str(out), "--history", str(history)])
        assert code == 0, capsys.readouterr()
        rows = [json.loads(line) for line in history.read_text().splitlines()]
        assert [r["kind"] for r in rows] == ["bench", "scaling"]
        assert all(r["schema"] == HISTORY_SCHEMA for r in rows)
        doc = json.loads(out.read_text())
        assert set(doc) == SCHEMA_KEYS
        assert doc["schema"] == SCHEMA == "repro.bench/2"
        assert doc["gate"]["ok"] is True
        assert doc["highs"]["epochs"] >= 8
        # every model HiGHS solved, the loop's and the scaling row's, is
        # certified optimal
        cert = doc["certificate"]
        assert cert["models"] == cert["certified"] > doc["highs"]["epochs"]
        assert cert["non_optimal"] == 0
        assert doc["scaling"]["machines"] == 20

    def test_bench_exits_1_when_nothing_was_certified(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(bench, "certify_solves", lambda solves: certify_solves([]))
        monkeypatch.setattr(bench, "SCALING_MACHINES", 20)
        code = main(["bench", "--out", str(tmp_path / "b.json"), "--no-history"])
        assert code == 1
        assert "models_solved" in capsys.readouterr().err
