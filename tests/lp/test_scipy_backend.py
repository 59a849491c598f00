"""Unit tests for the HiGHS backend."""

import pytest

from repro.lp.result import LPStatus
from repro.lp.scipy_backend import HighsBackend
from tests.lp.dense import dense_lp


@pytest.fixture
def backend():
    return HighsBackend()


def test_optimal_solution_per_column(backend):
    # x + 2y >= 2, y <= 1
    lp = dense_lp([1.0, 1.0], [[-1.0, -2.0]], [-2.0], bounds=[(0.0, float("inf")), (0.0, 1.0)])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.x.shape == (2,)  # one value per column
    assert res.objective == pytest.approx(1.0)  # y=1, x=0


def test_infeasible(backend):
    # x >= 5, x <= 1
    lp = dense_lp([1.0], [[-1.0]], [-5.0], bounds=[(0.0, 1.0)])
    assert backend.solve_assembled(lp).status is LPStatus.INFEASIBLE


def test_unbounded(backend):
    lp = dense_lp([-1.0])
    assert backend.solve_assembled(lp).status is LPStatus.UNBOUNDED


def test_empty_model_feasible(backend):
    res = backend.solve_assembled(dense_lp([]))
    assert res.is_optimal
    assert res.objective == 0.0


def test_solve_assembled_directly(backend):
    # x >= 1, x <= 3
    lp = dense_lp([2.0], [[-1.0]], [-1.0], bounds=[(0.0, 3.0)])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    assert res.objective == pytest.approx(2.0)


def test_objective_constant_propagates(backend):
    lp = dense_lp([1.0], bounds=[(0.0, 1.0)], objective_constant=-4.0)
    res = backend.solve_assembled(lp)
    assert res.objective == pytest.approx(-4.0)


def test_equality_and_inequality_mix(backend):
    # x + y + z == 6, x - y <= 0
    lp = dense_lp([1.0, 2.0, 3.0], [[1.0, -1.0, 0.0]], [0.0], [[1.0, 1.0, 1.0]], [6.0])
    res = backend.solve_assembled(lp)
    assert res.is_optimal
    # x and y split the mass; z = 0 at optimum
    x, y, z = res.x
    assert z == pytest.approx(0.0, abs=1e-9)
    assert x + y == pytest.approx(6.0)
