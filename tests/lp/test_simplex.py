"""Unit tests for the from-scratch two-phase revised simplex."""

import numpy as np
import pytest

from repro.lp.result import LPStatus
from repro.lp.simplex import SimplexBackend
from tests.lp.dense import dense_lp


@pytest.fixture
def backend():
    return SimplexBackend()


def test_simple_minimum(backend):
    # x + y >= 2
    lp = dense_lp([1.0, 2.0], [[-1.0, -1.0]], [-2.0])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.objective == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(2.0)


def test_equality_constraint(backend):
    lp = dense_lp([2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[3.0])
    res = backend.solve_assembled(lp)
    assert res.objective == pytest.approx(3.0)
    assert res.x[1] == pytest.approx(3.0)


def test_upper_bounds_respected(backend):
    # x + y >= 3, x <= 1.5
    lp = dense_lp([1.0, 5.0], [[-1.0, -1.0]], [-3.0], bounds=[(0.0, 1.5), (0.0, np.inf)])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.x[0] == pytest.approx(1.5)
    assert res.x[1] == pytest.approx(1.5)


def test_negative_lower_bound(backend):
    res = backend.solve_assembled(dense_lp([1.0], bounds=[(-2.0, 2.0)]))
    assert res.objective == pytest.approx(-2.0)


def test_free_variable_split(backend):
    # x >= -5, x free
    lp = dense_lp([1.0], [[-1.0]], [5.0], bounds=[(-np.inf, np.inf)])
    res = backend.solve_assembled(lp)
    assert res.objective == pytest.approx(-5.0)


def test_infeasible_detected(backend):
    # x >= 2, x <= 1
    lp = dense_lp([1.0], [[-1.0]], [-2.0], bounds=[(0.0, 1.0)])
    res = backend.solve_assembled(lp)
    assert res.status is LPStatus.INFEASIBLE


def test_unbounded_detected(backend):
    res = backend.solve_assembled(dense_lp([-1.0]))
    assert res.status is LPStatus.UNBOUNDED


def test_redundant_constraints_handled(backend):
    # x + y == 2 and its redundant double 2x + 2y == 4
    lp = dense_lp([1.0, 3.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[2.0, 4.0])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.objective == pytest.approx(2.0)


def test_degenerate_problem_terminates(backend):
    # many tied vertices: Bland fallback must terminate
    # x[i] + x[i + 1] >= 1 for i < 5, every x in [0, 1]
    a_ub = [[-1.0 if j in (i, i + 1) else 0.0 for j in range(6)] for i in range(5)]
    lp = dense_lp([1.0] * 6, a_ub, [-1.0] * 5, bounds=[(0.0, 1.0)] * 6)
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.objective == pytest.approx(3.0, abs=1e-6)


def test_iteration_cap_reported():
    # x + y >= 1
    lp = dense_lp([1.0, 1.0], [[-1.0, -1.0]], [-1.0])
    res = SimplexBackend(max_iterations=0).solve_assembled(lp)
    assert res.status is LPStatus.ITERATION_LIMIT
    assert "iteration cap" in res.message


def test_no_constraints_nonnegative_objective(backend):
    res = backend.solve_assembled(dense_lp([0.0]))
    assert res.is_optimal
    assert res.objective == pytest.approx(0.0)


def test_matches_highs_on_fixed_models(backend):
    from repro.lp.scipy_backend import HighsBackend

    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        upper = [float(rng.uniform(0.5, 4.0)) for _ in range(n)]
        a_ub, b_ub = [], []
        for _ in range(int(rng.integers(1, 5))):
            a_ub.append(rng.uniform(-1.0, 2.0, n))
            b_ub.append(float(rng.uniform(0.5, 5.0)))
        c = rng.uniform(-1, 1, n)
        lp = dense_lp(c, a_ub, b_ub, bounds=[(0.0, u) for u in upper], name=f"m{trial}")
        a = HighsBackend().solve_assembled(lp)
        b = backend.solve_assembled(lp)
        assert a.status == b.status
        if a.is_optimal:
            assert b.objective == pytest.approx(a.objective, abs=1e-7, rel=1e-7)
