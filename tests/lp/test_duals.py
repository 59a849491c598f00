"""Tests for dual values across both backends."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend
from tests.lp.dense import dense_lp


def _capacity_model():
    """min -x - 2y  s.t.  x + y <= 4,  y <= 3  (both rows bind at optimum)."""
    return dense_lp([-1.0, -2.0], [[1.0, 1.0], [0.0, 1.0]], [4.0, 3.0])


@pytest.mark.parametrize("backend_cls", [HighsBackend, SimplexBackend])
def test_binding_row_duals(backend_cls):
    res = backend_cls().solve_assembled(_capacity_model())
    assert res.is_optimal
    assert res.objective == pytest.approx(-7.0)  # x=1, y=3
    # d(obj)/d(total cap) = -1 (one more unit lets x grow, obj drops by 1)
    assert res.dual_ub[0] == pytest.approx(-1.0)
    # d(obj)/d(ycap) = -1 (swap a unit of x for y, net -1)
    assert res.dual_ub[1] == pytest.approx(-1.0)


@pytest.mark.parametrize("backend_cls", [HighsBackend, SimplexBackend])
def test_slack_row_dual_zero(backend_cls):
    # x <= 50 (loose), x in [0, 1]
    lp = dense_lp([-1.0], [[1.0]], [50.0], bounds=[(0.0, 1.0)])
    res = backend_cls().solve_assembled(lp)
    assert res.dual_ub[0] == pytest.approx(0.0)


@pytest.mark.parametrize("backend_cls", [HighsBackend, SimplexBackend])
def test_eq_row_dual(backend_cls):
    # x + y == 5 (pin)
    lp = dense_lp([2.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[5.0])
    res = backend_cls().solve_assembled(lp)
    assert res.objective == pytest.approx(10.0)  # all mass on x
    # one more unit of rhs costs 2 (the cheaper variable absorbs it)
    assert res.dual_eq[0] == pytest.approx(2.0)


@pytest.mark.parametrize("backend_cls", [HighsBackend, SimplexBackend])
def test_ge_row_dual_sign(backend_cls):
    """GE rows are stored negated; marginals follow the assembled row."""
    # x >= 2 (floor), written -x <= -2
    lp = dense_lp([3.0], [[-1.0]], [-2.0])
    res = backend_cls().solve_assembled(lp)
    assert res.objective == pytest.approx(6.0)
    # assembled as -x <= -2: d(obj)/d(-2) = -3
    assert res.dual_ub[0] == pytest.approx(-3.0)


finite = st.floats(min_value=0.2, max_value=3.0)


@given(st.lists(finite, min_size=2, max_size=5), finite)
@settings(max_examples=40, deadline=None)
def test_strong_duality_on_knapsack_like(costs, cap):
    """pi . b == optimum for a family with a unique non-degenerate optimum."""
    n = len(costs)
    # sum(v) <= cap, sum(v) >= cap / 2 (written -sum(v) <= -cap / 2)
    lp = dense_lp(costs, [[1.0] * n, [-1.0] * n], [cap, -cap / 2.0])
    for backend in (HighsBackend(), SimplexBackend()):
        res = backend.solve_assembled(lp)
        assert res.is_optimal
        # strong duality: obj == dual_ub . b_ub (vars have no finite uppers,
        # so no bound duals contribute)
        b_ub = np.array([cap, -cap / 2.0])
        assert res.objective == pytest.approx(float(res.dual_ub @ b_ub), abs=1e-7)

