"""Every paper and ablation claim holds at its reduced size.

The claims live once, in :mod:`repro.experiments.check`; ``python -m
repro check --full`` runs the same predicates at the paper's sizes.
"""

import pytest

from repro.experiments.check import CHECKS, claim_name
from repro.experiments.common import share_runs


@pytest.fixture(scope="module", autouse=True)
def one_run_per_experiment():
    """As in ``repro check``: Figs 6/7 and 9/10 each share one set of runs."""
    with share_runs():
        yield


@pytest.mark.parametrize("check", CHECKS, ids=[claim_name(c) for c in CHECKS])
def test_claim_holds(check):
    result = check(False)
    assert result.passed, f"{result.claim}: {result.evidence}"
