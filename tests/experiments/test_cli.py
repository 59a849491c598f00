"""Tests for the ``python -m repro`` CLI."""

import json

import pytest

from repro.cli import COMMANDS, build_parser, main


def test_parser_requires_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table IV" in out


def test_fig1_command(capsys):
    assert main(["fig1"]) == 0
    assert "Figure 1" in capsys.readouterr().out


def test_multiple_commands(capsys):
    assert main(["tables", "fig1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Figure 1" in out


def test_duplicates_run_once(capsys):
    assert main(["fig1", "fig1"]) == 0
    out = capsys.readouterr().out
    assert out.count("Figure 1 —") == 1


def test_unknown_command(capsys):
    assert main(["nope"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_all_expands_to_every_command():
    # 'all' must reference only registered commands (no stale names)
    assert set(COMMANDS) == {
        "tables", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "fairness", "frontier", "interference", "check",
    }


def test_aliases_name_one_experiment():
    # Figures 6/7 and 9/10 each come from one set of runs
    assert COMMANDS["fig7"] == COMMANDS["fig6"]
    assert COMMANDS["fig10"] == COMMANDS["fig9"]


class TestEachExperimentRunsOnce:
    @pytest.fixture()
    def calls(self, monkeypatch):
        from repro.experiments import exp_deadline, fig6_cost_reduction, fig9_100node_cost

        counts = {}
        for module in (fig6_cost_reduction, fig9_100node_cost, exp_deadline):
            real = module.run

            def counted(*args, _real=real, _name=module.__name__, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "run", counted)
        return counts

    def test_fig9_fig10_share_one_day(self, calls, capsys, monkeypatch):
        from repro.experiments import fig9_100node_cost

        monkeypatch.setattr(
            fig9_100node_cost, "REDUCED", dict(num_nodes=9, num_jobs=12, duration_s=1200.0)
        )
        assert main(["fig9", "fig10"]) == 0
        out = capsys.readouterr().out
        assert calls == {"repro.experiments.fig9_100node_cost": 1}
        assert out.count("Figure 9 —") == 1 and out.count("Figure 10 —") == 1

    def test_frontier_csv_computes_once(self, calls, tmp_path, capsys):
        assert main(["frontier", "--csv", str(tmp_path)]) == 0
        assert calls == {"repro.experiments.exp_deadline": 1}
        assert (tmp_path / "frontier.csv").exists()

    def test_fig6_fig7_and_their_claims_share_one_sweep(self, calls, capsys, monkeypatch):
        from repro.experiments import check

        monkeypatch.setattr(check, "CHECKS", [check._check_fig6, check._check_fig7])
        assert main(["fig6", "fig7", "check"]) == 0
        out = capsys.readouterr().out
        assert calls == {"repro.experiments.fig6_cost_reduction": 1}
        assert out.count("Figure 6 —") == 1 and out.count("Figure 7 —") == 1
        assert "2/2 claims hold" in out


class TestCheckExitCode:
    def test_failed_claim_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import check

        def holds(full):
            return check.CheckResult("holds", True, "ok")

        def fails(full):
            return check.CheckResult("fails", False, "seeded failure")

        monkeypatch.setattr(check, "CHECKS", [holds, fails])
        assert main(["check"]) == 1
        assert "1/2 claims hold" in capsys.readouterr().out

    def test_crashed_claim_exits_nonzero(self, capsys, monkeypatch):
        from repro.experiments import check

        def crashes(full):
            raise RuntimeError("boom")

        monkeypatch.setattr(check, "CHECKS", [crashes])
        assert main(["tables", "check"]) == 1
        out = capsys.readouterr().out
        assert "crashed" in out and "Table I" in out

    def test_passing_claims_exit_zero(self, capsys, monkeypatch):
        from repro.experiments import check

        monkeypatch.setattr(check, "CHECKS", [check._check_table1, check._check_fig1])
        assert main(["check"]) == 0


def test_frontier_command(capsys):
    assert main(["frontier"]) == 0
    out = capsys.readouterr().out
    assert "frontier" in out
    assert "deadline" in out


def test_csv_export_flag(tmp_path, capsys):
    assert main(["fig5", "--csv", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "fig5.csv").exists()
    header = (tmp_path / "fig5.csv").read_text().splitlines()[0]
    assert header == "tasks,stores,machines,lips_cost,default_cost,reduction"


def test_tables_csv_export(tmp_path, capsys):
    assert main(["tables", "--csv", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    for name in ("table1", "table3", "table4"):
        assert (tmp_path / f"{name}.csv").exists()
    header = (tmp_path / "table1.csv").read_text().splitlines()[0]
    assert header == "app,property,cpu_s_per_64mb_block"


class TestObservabilityFlags:
    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["fig8", "--trace", str(path)]) == 0
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records
        cats = {r["cat"] for r in records}
        assert {"epoch", "task", "lp"} <= cats
        assert any(r["type"] == "lp_solve" for r in records)

    def test_metrics_flag_writes_registry_dump(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["fig8", "--metrics", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        dump = json.loads(path.read_text())
        names = {m["name"] for m in dump}
        assert {"tasks_run", "lp_solves", "makespan"} <= names

    def test_no_flags_no_files(self, tmp_path, capsys):
        assert main(["fig1"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestReportSubcommand:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        main(["fig8", "--trace", str(path)])
        capsys.readouterr()  # swallow the experiment output
        return path

    def test_renders_tables(self, trace_path, capsys):
        assert main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        for section in ("records", "Per-epoch", "Per-solve", "Per-machine"):
            assert section in out

    def test_chrome_conversion(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["report", str(trace_path), "--chrome", str(out_path)]) == 0
        assert "traceEvents" in json.loads(out_path.read_text())

    def test_limit_flag(self, trace_path, capsys):
        assert main(["report", str(trace_path), "--limit", "2"]) == 0
        assert "first 2 of" in capsys.readouterr().out

    def test_missing_path_exits(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_nonexistent_trace_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_garbage_trace_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        assert main(["report", str(path)]) == 2
        assert "not a JSONL trace" in capsys.readouterr().err


def test_unwritable_trace_path(capsys):
    assert main(["fig1", "--trace", "/nonexistent-dir/t.jsonl"]) == 2
    assert "cannot write trace" in capsys.readouterr().err
