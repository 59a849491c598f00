"""Unit tests for equality-standard-form conversion."""

import numpy as np
import pytest

from repro.lp.standard_form import to_standard_form
from tests.lp.dense import dense_lp


def test_lower_bound_shift_recovered():
    std = to_standard_form(dense_lp([1.0], bounds=[(2.0, 5.0)]))
    # shifted objective constant accounts for c*l
    assert std.objective_constant == pytest.approx(2.0)
    x = std.recover(np.zeros(std.c.shape[0]))
    assert x[0] == pytest.approx(2.0)  # y=0 maps back to the lower bound


def test_free_variable_split_columns():
    std = to_standard_form(dense_lp([0.0], bounds=[(-np.inf, np.inf)]))
    kind, cols = std.recovery[0]
    assert kind == "split"
    y = np.zeros(std.c.shape[0])
    y[cols[0]], y[cols[1]] = 3.0, 1.0
    assert std.recover(y)[0] == pytest.approx(2.0)


def test_upper_bound_becomes_row_with_slack():
    std = to_standard_form(dense_lp([0.0], bounds=[(0.0, 4.0)]))
    # one row (the bound), one structural + one slack column
    assert std.a.shape == (1, 2)
    assert std.b[0] == pytest.approx(4.0)


def test_le_rows_get_slacks():
    # 2x <= 6; x has no finite upper: only the constraint row
    std = to_standard_form(dense_lp([0.0], [[2.0]], [6.0]))
    assert std.a.shape == (1, 2)
    # row equilibration divides by max |structural coeff| (= 2)
    assert std.row_scale[0] == pytest.approx(2.0)
    assert std.a[0, 0] == pytest.approx(1.0)
    assert std.a[0, 1] == pytest.approx(0.5)  # slack coefficient, scaled


def test_negative_rhs_rows_normalised():
    std = to_standard_form(dense_lp([0.0], a_eq=[[-1.0]], b_eq=[-3.0]))
    assert np.all(std.b >= 0)
    # row was negated: coefficient flips sign
    assert std.a[0, 0] == pytest.approx(1.0)
    assert std.b[0] == pytest.approx(3.0)


def test_rhs_shifted_by_lower_bounds():
    std = to_standard_form(dense_lp([0.0], [[2.0]], [8.0], bounds=[(1.0, np.inf)]))
    # 2(y+1) <= 8  =>  2y <= 6, equilibrated by 2 => y <= 3
    assert std.b[0] * std.row_scale[0] == pytest.approx(6.0)


def test_row_equilibration_catches_tiny_rows():
    """Regression: a tiny-coefficient infeasible row must not pass phase 1."""
    from repro.lp.result import LPStatus
    from repro.lp.simplex import SimplexBackend

    eps = 5.960464477539063e-08
    # v1 <= 0 and -eps * v1 <= -eps, i.e. v1 >= 1: infeasible
    lp = dense_lp([0.0, 0.0], [[0.0, 1.0], [0.0, -eps]], [0.0, -eps], bounds=[(0.0, 1.0)] * 2)
    res = SimplexBackend().solve_assembled(lp)
    assert res.status is LPStatus.INFEASIBLE


def test_objective_expansion_on_split_var():
    std = to_standard_form(dense_lp([3.0], bounds=[(-np.inf, np.inf)]))
    kind, (cp, cn) = std.recovery[0]
    assert std.c[cp] == pytest.approx(3.0)
    assert std.c[cn] == pytest.approx(-3.0)
