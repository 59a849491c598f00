"""Baseline round-trip, reason enforcement and stale-entry detection."""

import json
from pathlib import Path

import pytest

from repro.lint.flow import analyze_paths, load_baseline, write_baseline
from repro.lint.flow.baseline import BaselineEntry, BaselineError, apply_baseline

FIXTURES = Path(__file__).parent / "fixtures"


def test_write_then_load_round_trips_and_silences(tmp_path):
    report = analyze_paths([FIXTURES / "flow102_bad.py"], entry_points=[])
    assert len(report.findings) == 1

    baseline_path = tmp_path / "baseline.json"
    count = write_baseline(report.findings, baseline_path)
    assert count == 1

    entries = load_baseline(baseline_path)
    assert len(entries) == 1
    assert entries[0].rule == "FLOW102"

    silenced = analyze_paths(
        [FIXTURES / "flow102_bad.py"], entry_points=[], baseline=baseline_path
    )
    assert silenced.findings == []
    assert len(silenced.baselined) == 1
    assert silenced.stale == []
    assert silenced.ok


def test_missing_baseline_file_is_empty():
    assert load_baseline(Path("/nonexistent/flow-baseline.json")) == []


def test_entries_without_reason_are_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {"rule": "FLOW102", "path": "x.py", "symbol": "", "reason": "  "}
                ],
            }
        )
    )
    with pytest.raises(BaselineError, match="reason"):
        load_baseline(path)


def test_malformed_json_is_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    with pytest.raises(BaselineError):
        load_baseline(path)


def test_stale_entries_are_reported(tmp_path):
    stale_entry = BaselineEntry(
        rule="FLOW999", path="ghost.py", symbol="", reason="long gone"
    )
    kept, baselined, stale = apply_baseline([], [stale_entry])
    assert kept == [] and baselined == []
    assert stale == [stale_entry]

    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "FLOW999",
                        "path": "ghost.py",
                        "symbol": "",
                        "reason": "long gone",
                    }
                ],
            }
        )
    )
    report = analyze_paths(
        [FIXTURES / "flow102_ok.py"], entry_points=[], baseline=baseline_path
    )
    assert report.findings == []
    assert len(report.stale) == 1
    assert not report.ok  # stale entries gate like findings do


def test_symbol_must_match_when_given():
    from repro.lint.findings import Finding, Severity

    finding = Finding(
        rule="FLOW102",
        severity=Severity.ERROR,
        message="m",
        location="src/x.py",
        line=3,
        symbol="mod:Cls.attr",
    )
    wrong = BaselineEntry(
        rule="FLOW102", path="src/x.py", symbol="mod:Other.attr", reason="r"
    )
    right = BaselineEntry(
        rule="FLOW102", path="src/x.py", symbol="mod:Cls.attr", reason="r"
    )
    assert not wrong.matches(finding)
    assert right.matches(finding)
