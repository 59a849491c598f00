"""Model-linter tests: each LM/LIPS rule with a triggering and a clean case."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.assembly import ModelAssembler
from repro.core.simple_task import identity_placement
from repro.lint import (
    ModelProfile,
    Severity,
    lint_lips,
    lint_lips_model,
    lint_model,
    lint_repo_models,
)
from repro.lp.problem import CsrMatrix
from tests.lp.dense import dense_lp


def _rules(findings):
    return {f.rule for f in findings}


# -- generic LM rules --------------------------------------------------------


def test_clean_model_has_no_findings():
    # x + y >= 1 (cover, written negated), x, y in [0, 2]
    lp = dense_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0], bounds=[(0.0, 2.0)] * 2, name="clean")
    assert lint_model(lp) == []


def test_lm001_dangling_variable():
    # x <= 1; column 1 is in no row and costs nothing
    lp = dense_lp([1.0, 0.0], [[1.0, 0.0]], [1.0], bounds=[(0.0, 1.0)] * 2)
    findings = lint_model(lp)
    assert _rules(findings) == {"LM001"}
    assert "x[1]" in findings[0].message


def test_lm002_zero_row_warning_and_error():
    # one <= row with no coefficients, so only its rhs decides
    satisfiable = lint_model(dense_lp([1.0], [[0.0]], [1.0], bounds=[(0.0, 1.0)]))
    assert _rules(satisfiable) == {"LM002"}
    assert satisfiable[0].severity is Severity.WARNING

    impossible = lint_model(dense_lp([1.0], [[0.0]], [-1.0], bounds=[(0.0, 1.0)]))
    assert _rules(impossible) == {"LM002"}
    assert impossible[0].severity is Severity.ERROR
    assert "infeasible" in impossible[0].message


def test_lm003_duplicate_and_lm004_dominated_rows():
    # x <= 2 (tight), x <= 2 (copy), x <= 4 (loose)
    lp = dense_lp([1.0], [[1.0], [1.0], [1.0]], [2.0, 2.0, 4.0], bounds=[(0.0, 5.0)])
    findings = lint_model(lp)
    assert _rules(findings) == {"LM003", "LM004"}
    assert len(findings) == 2


def test_lm005_unbounded_improving_direction():
    lp = dense_lp([-1.0])  # upper defaults to +inf
    findings = lint_model(lp, ModelProfile(dollar_objective=False))
    assert _rules(findings) == {"LM005"}
    assert findings[0].severity is Severity.ERROR


def test_lm005_silenced_by_limiting_constraint():
    lp = dense_lp([-1.0], [[1.0]], [10.0])
    findings = lint_model(lp, ModelProfile(dollar_objective=False))
    assert findings == []


def test_lm006_negative_dollar_cost():
    lp = dense_lp([-3.0], [[1.0]], [1.0], bounds=[(0.0, 1.0)])
    findings = lint_model(lp)  # dollar objective is the default profile
    assert _rules(findings) == {"LM006"}
    # non-dollar objectives are allowed to pay for work
    assert lint_model(lp, ModelProfile(dollar_objective=False)) == []


def test_lm007_conditioning_spread():
    lp = dense_lp([1.0, 1.0], [[1e-5, 1e5]], [1.0], bounds=[(0.0, 1.0)] * 2)
    findings = lint_model(lp)
    assert _rules(findings) == {"LM007"}
    assert "rescale" in findings[0].message


# -- LiPS well-posedness rules ----------------------------------------------


def _online_assembler(inp, **overrides):
    kwargs = dict(
        include_xd=True, horizon=600.0, include_fake=True, epoch_bandwidth=True
    )
    kwargs.update(overrides)
    return ModelAssembler(inp, **kwargs)


def test_lips_rules_pass_on_well_formed_models(small_input):
    assert lint_repo_models() == []
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    assert lint_lips(assembler, asm, "co-online") == []


def test_lips_rejects_unknown_kind(small_input):
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    with pytest.raises(ValueError, match="unknown LiPS model kind"):
        lint_lips(assembler, asm, "figure-12")


def test_lips001_online_without_fake_node(small_input):
    assembler = _online_assembler(small_input, include_fake=False)
    asm = assembler.build()
    findings = lint_lips(assembler, asm, "co-online")
    assert "LIPS001" in _rules(findings)
    # the same assembler is a legitimate offline model
    offline = ModelAssembler(small_input, include_xd=True)
    assert lint_lips(offline, offline.build(), "co-offline") == []


def test_lips002_fake_cost_must_dominate(small_input):
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    asm.c[assembler.off_f] = 0.0  # job 0's escape hatch is now free
    findings = lint_lips(assembler, asm, "co-online")
    assert _rules(findings) == {"LIPS002"}
    assert "job 0" in findings[0].message


def test_lips003_missing_epoch_capacity_rows(small_input):
    assembler = _online_assembler(small_input, epoch_bandwidth=False)
    asm = assembler.build()  # no constraint-(21) rows were emitted
    assembler.epoch_bandwidth = True  # model now *claims* to enforce them
    findings = lint_lips(assembler, asm, "co-online")
    assert "LIPS003" in _rules(findings)


def test_lips004_malformed_data_coverage(small_input):
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    start, _stop = assembler.row_ranges["data_coverage"]
    asm.b_ub[start] = -2.0  # object 0 forced to be placed twice
    findings = lint_lips(assembler, asm, "co-online")
    assert _rules(findings) == {"LIPS004"}


def test_lips005_missing_job_coverage(small_input):
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    assembler.row_ranges.pop("job_coverage")
    findings = lint_lips(assembler, asm, "co-online")
    assert "LIPS005" in _rules(findings)


def test_lint_lips_model_carries_row_family_labels(small_input):
    """LM findings on assembler-built models name constraint families."""
    assembler = _online_assembler(small_input)
    asm = assembler.build()
    # duplicate the first job-coverage row to provoke LM003 with a label
    start, _stop = assembler.row_ranges["job_coverage"]
    a_ub = asm.a_ub.to_scipy()
    stacked = sparse.vstack([a_ub, a_ub[start]]).tocoo()
    asm.a_ub = CsrMatrix.from_coo(stacked.row, stacked.col, stacked.data, stacked.shape)
    asm.b_ub = np.append(asm.b_ub, asm.b_ub[start])
    findings = [f for f in lint_lips_model(assembler, asm, "co-online") if f.rule == "LM003"]
    assert findings and "job_coverage[0]" in findings[0].message


def test_identity_placement_lints_clean(small_input):
    assembler = ModelAssembler(
        small_input, include_xd=False, fixed_placement=identity_placement(small_input)
    )
    asm = assembler.build()
    assert lint_lips_model(assembler, asm, "simple-task") == []
