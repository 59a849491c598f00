"""The simplex's basis inverse must agree with a freshly computed inverse.

Every ftran/btran/unit_btran/update/refactor operation of
:class:`~repro.lp.simplex.BasisInverse` is checked against dense linear
algebra on the same basis matrix, including after a sequence of rank-one
pivot updates.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.lp.simplex import BasisInverse, BasisSingularError, dense_column


def well_conditioned(m=12, n=20, seed=0):
    """A random CSC matrix whose first ``m`` columns form a solid basis."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    a[np.abs(a) < 0.8] = 0.0  # realistic sparsity
    # diagonally dominant basis columns -> comfortably invertible
    np.fill_diagonal(a[:, :m], np.diag(a[:, :m]) + m)
    return sparse.csc_matrix(a)


class TestAgainstExplicitInverse:
    def test_ftran_btran_unit_btran(self):
        a = well_conditioned()
        basis = np.arange(12)
        inverse = BasisInverse(a, basis)
        b_inv = np.linalg.inv(a[:, basis].toarray())
        rng = np.random.default_rng(1)
        v = rng.normal(size=12)
        w = rng.normal(size=12)
        assert np.allclose(inverse.ftran(v), b_inv @ v)
        assert np.allclose(inverse.btran(w), w @ b_inv)
        for i in (0, 5, 11):
            assert np.allclose(inverse.unit_btran(i), b_inv[i])

    def test_update_tracks_basis_exchange(self):
        a = well_conditioned()
        basis = np.arange(12)
        inverse = BasisInverse(a, basis)
        rng = np.random.default_rng(2)
        # pivot three entering columns in, checking against a fresh inverse
        for entering, leaving in [(13, 2), (16, 7), (18, 2)]:
            direction = inverse.ftran(dense_column(a, entering))
            assert abs(direction[leaving]) > 1e-9, "test pivot must be stable"
            inverse.update(leaving, direction)
            basis[leaving] = entering
            b_inv = np.linalg.inv(a[:, basis].toarray())
            v = rng.normal(size=12)
            assert np.allclose(inverse.ftran(v), b_inv @ v, atol=1e-8)
            assert np.allclose(inverse.btran(v), v @ b_inv, atol=1e-8)

    def test_refactor_resets_to_the_new_basis(self):
        a = well_conditioned()
        inverse = BasisInverse(a, np.arange(12))
        basis = np.arange(12)
        basis[3] = 15
        inverse.refactor(a, basis)
        b_inv = np.linalg.inv(a[:, basis].toarray())
        v = np.ones(12)
        assert np.allclose(inverse.ftran(v), b_inv @ v)

    def test_singular_basis_raises(self):
        a = well_conditioned()
        basis = np.arange(12)
        basis[1] = 0  # duplicated column -> singular basis matrix
        with pytest.raises(BasisSingularError):
            BasisInverse(a, basis)
