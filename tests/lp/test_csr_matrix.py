"""``CsrMatrix.from_coo`` gives exactly the arrays scipy's conversion gives.

The assembled LP's matrices are built without ``scipy.sparse`` and handed to
HiGHS as they are, so they must be byte for byte what
``scipy.sparse.csr_matrix((vals, (rows, cols)), shape)`` held before:
same ``indptr``, ``indices`` and ``data``, same dtypes — column indices
sorted within each row, duplicates summed, explicit zeros kept, empty rows
and columns and zero-row shapes included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.lp.problem import CsrMatrix

#: multiples of 1/4 sum exactly in any order, so summed duplicates do not
#: depend on the order scipy's unstable per-row sort leaves them in
_dyadic = st.integers(-8, 8).map(lambda i: i / 4.0)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def triplets(draw, values=_dyadic, unique=False):
    """``(rows, cols, vals, shape)``; repeated coordinates unless ``unique``."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, 6))
    if m == 0 or n == 0:
        return [], [], [], (m, n)
    coord = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    coords = draw(st.lists(coord, max_size=24, unique=unique))
    vals = draw(st.lists(values, min_size=len(coords), max_size=len(coords)))
    rows = [r for r, _ in coords]
    cols = [c for _, c in coords]
    return rows, cols, vals, (m, n)


def _assert_same_arrays(got: CsrMatrix, want) -> None:
    assert got.shape == want.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


@given(coo=st.one_of(triplets(), triplets(values=_finite, unique=True)))
@settings(max_examples=400, deadline=None)
def test_from_coo_matches_scipy_byte_for_byte(coo):
    rows, cols, vals, shape = coo
    want = sparse.csr_matrix(
        (np.asarray(vals, dtype=float), (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int))),
        shape=shape,
    )
    got = CsrMatrix.from_coo(rows, cols, vals, shape)
    _assert_same_arrays(got, want)
    assert got.nnz == want.nnz


@given(coo=triplets())
@settings(max_examples=200, deadline=None)
def test_scipy_view_round_trips(coo):
    rows, cols, vals, shape = coo
    mat = CsrMatrix.from_coo(rows, cols, vals, shape)
    view = mat.to_scipy()
    assert isinstance(view, sparse.csr_matrix)
    _assert_same_arrays(mat, view)
    back = view.tocoo()
    _assert_same_arrays(CsrMatrix.from_coo(back.row, back.col, back.data, back.shape), view)
    assert np.array_equal(np.asarray(mat), view.toarray())


def test_explicit_zeros_and_duplicates():
    mat = CsrMatrix.from_coo([1, 1, 1, 0], [2, 0, 2, 1], [3.0, 0.0, -3.0, 5.0], (3, 3))
    assert mat.indptr.tolist() == [0, 1, 3, 3]
    assert mat.indices.tolist() == [1, 0, 2]
    assert mat.data.tolist() == [5.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "rows, cols",
    [([2], [0]), ([0], [3]), ([-1], [0]), ([0], [-1])],
)
def test_index_outside_the_shape_is_rejected(rows, cols):
    with pytest.raises(ValueError):
        CsrMatrix.from_coo(rows, cols, [1.0], (2, 3))
