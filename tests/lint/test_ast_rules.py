"""AST rule tests driven by the fixture corpus in ``tests/lint/fixtures``.

Each rule has a ``<rule>_bad.py`` fixture that must trigger it (and nothing
else) and a ``<rule>_ok.py`` fixture that must lint clean — so a rule change
that widens or narrows its net fails here first.
"""

from pathlib import Path

import pytest

from repro.lint import Severity, lint_paths, lint_source
from repro.lint.findings import suppressed_rules
from repro.lint.flow.symbols import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = [
    ("AST001", "ast001"),
    ("AST002", "ast002"),
    ("AST003", "ast003"),
    ("AST004", "ast004"),
]


@pytest.mark.parametrize("rule_id,stem", RULE_FIXTURES)
def test_bad_fixture_triggers_exactly_its_rule(rule_id, stem):
    findings = lint_paths([FIXTURES / f"{stem}_bad.py"])
    assert findings, f"{stem}_bad.py produced no findings"
    assert {f.rule for f in findings} == {rule_id}
    assert all(f.severity is Severity.WARNING for f in findings)
    assert all(f.line is not None for f in findings)


@pytest.mark.parametrize("rule_id,stem", RULE_FIXTURES)
def test_ok_fixture_is_clean(rule_id, stem):
    findings = lint_paths([FIXTURES / f"{stem}_ok.py"])
    assert findings == [], [f.render() for f in findings]


def test_ast001_counts_every_set_iteration():
    findings = lint_paths([FIXTURES / "ast001_bad.py"])
    # sets: for-loop, generator over set(...), generator over set algebra;
    # listings: os.listdir loop, from-imported listdir, Path.iterdir, glob.glob
    assert len(findings) == 7
    assert sum("filesystem order" in f.message for f in findings) == 4


def test_ast004_flags_both_positional_and_keyword_defaults():
    findings = lint_paths([FIXTURES / "ast004_bad.py"])
    assert len(findings) == 2
    assert any("push" in f.message for f in findings)
    assert any("tally" in f.message for f in findings)


def test_suppression_comment_silences_one_rule():
    src = "def f(x):\n    return int(round(x))  # lint: ok=AST003\n"
    assert lint_source(src) == []
    # without the marker the finding comes back
    assert [f.rule for f in lint_source(src.replace("  # lint: ok=AST003", ""))] == ["AST003"]


def test_suppression_is_per_rule():
    src = "def f(x):\n    return int(round(x))  # lint: ok=AST001\n"
    assert [f.rule for f in lint_source(src)] == ["AST003"]


def test_suppressed_rules_parses_lists():
    assert suppressed_rules("x = 1  # lint: ok=AST001, AST003") == {"AST001", "AST003"}
    assert suppressed_rules("x = 1  # just a comment") == frozenset()


def test_syntax_error_becomes_ast999():
    findings = lint_source("def broken(:\n", filename="broken.py")
    assert [f.rule for f in findings] == ["AST999"]
    assert findings[0].severity is Severity.ERROR
    assert findings[0].location == "broken.py"


def test_unreadable_file_becomes_ast998(tmp_path):
    findings = lint_paths([tmp_path / "missing.py"])
    assert [f.rule for f in findings] == ["AST998"]
    assert findings[0].severity is Severity.ERROR


def test_iter_python_files_expands_directories():
    files = iter_python_files([FIXTURES])
    names = {p.name for p in files}
    assert {f"{stem}_bad.py" for _, stem in RULE_FIXTURES} <= names
    # deduplicates overlapping path specs
    assert iter_python_files([FIXTURES, FIXTURES / "ast001_bad.py"]) == files
