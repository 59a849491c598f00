"""CLI tests for ``python -m repro lint`` and the subcommand registry."""

import ast
import contextlib
import io
import json
from pathlib import Path

import pytest

import repro
from repro.cli import SUBCOMMANDS, build_lint_parser, main
from repro.lint.flow import DEFAULT_ENTRY_POINTS


def test_lint_subcommand_registered():
    assert "lint" in SUBCOMMANDS
    assert "report" in SUBCOMMANDS


def test_repo_lints_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


@pytest.fixture(scope="module")
def package_json():
    """Exit code and JSON document of one ``repro lint --format json`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["lint", "--format", "json"])
    return rc, json.loads(out.getvalue())


def test_json_format_parses(package_json):
    rc, payload = package_json
    assert rc == 0
    assert payload["findings"] == []
    assert payload["errors"] == 0
    assert payload["warnings"] == 0


def test_one_run_covers_the_package_with_flow_stats(package_json):
    rc, payload = package_json
    assert rc == 0
    flow = payload["flow"]
    # the per-module rules and the flow passes saw the same package trees:
    # every module and every def in it
    files = sorted(Path(repro.__file__).parent.rglob("*.py"))
    defs = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
    )
    assert flow["modules"] == len(files) and flow["functions"] == defs and flow["edges"] > 0
    # every default entry point resolves to exactly one function
    assert set(flow["entry_points"]) == set(DEFAULT_ENTRY_POINTS)
    assert all(len(qnames) == 1 for qnames in flow["entry_points"].values())


def test_flow_flag_is_gone():
    parser = build_lint_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["--flow"])
    assert exc.value.code == 2
    options = {opt for action in parser._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--format"}


def test_findings_set_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x):\n    return int(round(x))\n")
    assert main(["lint", str(bad)]) == 1
    assert "AST003" in capsys.readouterr().out


def test_findings_exit_code_in_json_mode(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x, acc=[]):\n    return acc\n")
    assert main(["lint", "--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["AST004"]
    assert payload["warnings"] == 1


def test_explicit_clean_path_exits_zero(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("def f(x):\n    return x + 1\n")
    assert main(["lint", str(good)]) == 0


def test_bad_format_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_lint_parser().parse_args(["--format", "xml"])
    assert exc.value.code == 2


def test_unknown_experiment_mentions_subcommands(capsys):
    assert main(["bogus"]) == 2
    err = capsys.readouterr().err
    assert "lint" in err and "report" in err
