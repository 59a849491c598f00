"""CLI tests for the flow passes inside ``python -m repro lint``."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_flow_findings_gate_the_exit_code(capsys):
    rc = main(["lint", str(FIXTURES / "flow103_bad.py")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FLOW103" in out


def test_flow_json_schema(capsys):
    rc = main(["lint", "--format", "json", str(FIXTURES / "flow201_bad.py")])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"FLOW201"}
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "severity", "message", "location", "line", "symbol"}
    flow = payload["flow"]
    assert set(flow) == {"entry_points", "modules", "functions", "edges"}
    assert flow["modules"] == 1
    assert flow["functions"] >= 1
    # the fixture defines none of the default roots
    assert all(qnames == [] for qnames in flow["entry_points"].values())


def test_clean_fixture_exits_zero(capsys):
    rc = main(["lint", str(FIXTURES / "flow103_ok.py")])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_repo_default_invocation_is_clean(capsys):
    rc = main(["lint"])
    assert rc == 0
    assert "0 finding(s)" in capsys.readouterr().out
