"""CLI tests for ``python -m repro lint --flow``."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[3]


def test_flow_findings_gate_the_exit_code(tmp_path, capsys):
    rc = main(
        [
            "lint",
            "--flow",
            "--entry",
            "run",
            "--baseline",
            str(tmp_path / "none.json"),
            str(FIXTURES / "flow001_bad.py"),
        ]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLOW001" in out


def test_flow_json_schema(tmp_path, capsys):
    rc = main(
        [
            "lint",
            "--flow",
            "--format",
            "json",
            "--entry",
            "run",
            "--baseline",
            str(tmp_path / "none.json"),
            str(FIXTURES / "flow001_bad.py"),
        ]
    )
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert [f["rule"] for f in payload["findings"]] == ["FLOW001"]
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "severity", "message", "location", "line", "symbol"}
    flow = payload["flow"]
    assert flow["entry_points"] == {"run": ["flow001_bad:run"]}
    assert flow["modules"] == 1
    assert flow["functions"] == 3
    assert flow["edges"] >= 2
    assert flow["baselined"] == []
    assert flow["stale_baseline"] == []


def test_clean_fixture_exits_zero(tmp_path, capsys):
    rc = main(
        [
            "lint",
            "--flow",
            "--entry",
            "run",
            "--baseline",
            str(tmp_path / "none.json"),
            str(FIXTURES / "flow001_ok.py"),
        ]
    )
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_write_baseline_then_rerun_clean(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fixture = str(FIXTURES / "flow102_bad.py")
    rc = main(
        ["lint", "--flow", "--write-baseline", "--baseline", str(baseline), fixture]
    )
    assert rc == 0
    assert baseline.exists()
    capsys.readouterr()

    rc = main(["lint", "--flow", "--baseline", str(baseline), fixture])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_stale_baseline_entry_fails_the_run(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "FLOW102",
                        "path": "ghost.py",
                        "symbol": "",
                        "reason": "ghost",
                    }
                ],
            }
        )
    )
    rc = main(
        [
            "lint",
            "--flow",
            "--baseline",
            str(baseline),
            str(FIXTURES / "flow102_ok.py"),
        ]
    )
    assert rc == 1
    assert "stale baseline entry" in capsys.readouterr().out


def test_malformed_baseline_is_a_usage_error(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{broken")
    rc = main(
        ["lint", "--flow", "--baseline", str(baseline), str(FIXTURES / "flow102_ok.py")]
    )
    assert rc == 2
    assert "bad baseline" in capsys.readouterr().err


def test_repo_default_invocation_is_clean(capsys):
    rc = main(["lint", "--flow", "--baseline", str(REPO_ROOT / "FLOW_BASELINE.json")])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out
