"""Flow-pass tests driven by the fixture corpus in ``fixtures/``.

Mirrors the AST-rule corpus contract: every ``<rule>_bad.py`` must produce
exactly its rule id and nothing else; every ``<rule>_ok.py`` must analyze
clean.  Entry specs are per-fixture: determinism rules need reachability
from ``run``, pool rules fire at the dispatch site regardless.
"""

from pathlib import Path

import pytest

from repro.lint.findings import Severity
from repro.lint.flow import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (rule id, fixture stem, entry specs for the analysis)
RULE_FIXTURES = [
    ("FLOW001", "flow001", ["run"]),
    ("FLOW002", "flow002", ["run"]),
    ("FLOW103", "flow103", []),
    ("FLOW201", "flow201", []),
]


@pytest.mark.parametrize("rule_id,stem,entries", RULE_FIXTURES)
def test_bad_fixture_triggers_exactly_its_rule(rule_id, stem, entries):
    report = analyze_paths([FIXTURES / f"{stem}_bad.py"], entry_points=entries)
    assert report.findings, f"{stem}_bad.py produced no findings"
    assert {f.rule for f in report.findings} == {rule_id}
    assert all(f.line is not None for f in report.findings)
    assert all(f.symbol for f in report.findings)


@pytest.mark.parametrize("rule_id,stem,entries", RULE_FIXTURES)
def test_ok_fixture_is_clean(rule_id, stem, entries):
    report = analyze_paths([FIXTURES / f"{stem}_ok.py"], entry_points=entries)
    assert report.findings == [], [f.render() for f in report.findings]


def test_pool_rng_fixture_names_the_unseeded_site():
    report = analyze_paths([FIXTURES / "flow103_bad.py"], entry_points=[])
    [finding] = report.findings
    assert finding.rule == "FLOW103"
    assert finding.severity is Severity.ERROR
    assert "default_rng() without a seed" in finding.message
    assert "seed" in finding.message


def test_determinism_findings_carry_the_call_chain():
    report = analyze_paths([FIXTURES / "flow001_bad.py"], entry_points=["run"])
    [finding] = report.findings
    assert "run -> _plan -> _draw" in finding.message


def test_hazards_unreachable_from_entries_stay_silent():
    # without the `run` entry the RNG site is dead code to this pass
    report = analyze_paths([FIXTURES / "flow001_bad.py"], entry_points=[])
    assert report.findings == []


def test_suppression_comment_silences_a_flow_rule(tmp_path):
    source = (FIXTURES / "flow001_bad.py").read_text()
    patched = source.replace(
        "return np.random.random(n)  # ambient global RNG — seeded runs diverge",
        "return np.random.random(n)  # lint: ok=FLOW001",
    )
    assert patched != source
    path = tmp_path / "suppressed.py"
    path.write_text(patched)
    report = analyze_paths([path], entry_points=["run"])
    assert report.findings == []


def test_units_pass_flags_cross_unit_comparison(tmp_path):
    path = tmp_path / "cmp.py"
    path.write_text(
        "from repro.units import DOLLARS, SECONDS, returns\n\n"
        "@returns(DOLLARS)\n"
        "def cost():\n    return 1.0\n\n"
        "@returns(SECONDS)\n"
        "def elapsed():\n    return 2.0\n\n"
        "def worse():\n    return cost() > elapsed()\n"
    )
    report = analyze_paths([path], entry_points=[])
    assert [f.rule for f in report.findings] == ["FLOW201"]
    assert "comparison" in report.findings[0].message


def test_units_pass_tracks_assignments_and_augassign(tmp_path):
    path = tmp_path / "aug.py"
    path.write_text(
        "from repro.units import DOLLARS, SECONDS, returns\n\n"
        "@returns(DOLLARS)\n"
        "def cost():\n    return 1.0\n\n"
        "@returns(SECONDS)\n"
        "def elapsed():\n    return 2.0\n\n"
        "def tally():\n"
        "    total = cost()\n"
        "    total += elapsed()\n"
        "    return total\n"
    )
    report = analyze_paths([path], entry_points=[])
    assert [f.rule for f in report.findings] == ["FLOW201"]
    assert "augmented assignment" in report.findings[0].message
