"""The one LP model form: :class:`AssembledLP` over :class:`CsrMatrix` arrays.

Every model the schedulers solve (the paper's Figures 2–4, LiPS's zone
aggregate, Quincy's flow) is built straight into an :class:`AssembledLP`
by :class:`~repro.core.assembly.ModelAssembler` and
:meth:`CsrMatrix.from_coo`, and every backend takes it through
``solve_assembled``.  The matrices are plain numpy compressed-row arrays,
which is what HiGHS takes, so assembling and solving a model never loads
``scipy.sparse``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix as plain numpy compressed-row (CSR) arrays.

    Row ``r`` holds columns ``indices[indptr[r]:indptr[r + 1]]``, sorted,
    with values ``data[indptr[r]:indptr[r + 1]]``.  HiGHS takes these
    arrays as they are (row-wise), so the solve path needs no
    ``scipy.sparse``; code that does sparse algebra asks for
    :meth:`to_scipy`.  ``np.asarray`` gives the dense matrix.
    """

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: Tuple[int, int]) -> "CsrMatrix":
        """Compress COO triplets exactly as ``scipy.sparse.csr_matrix`` does.

        Column indices end up sorted within each row, duplicate entries are
        summed and explicit zeros are kept.  Indices are int32 unless a
        dimension or the entry count needs int64 (scipy's rule); values are
        float64.
        """
        m, n = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape or rows.ndim != 1:
            raise ValueError("rows, cols and vals must be 1-D and of one length")
        if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"COO index outside a {m}x{n} matrix")
        index_dtype = np.int32 if max(m, n, rows.size) <= np.iinfo(np.int32).max else np.int64
        # sort entries row-major by one key; stable, so duplicates keep
        # their input order
        key = rows * n + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
        if key.size > 1:
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            if not first.all():
                starts = np.flatnonzero(first)
                key, vals = key[starts], np.add.reduceat(vals, starts)
        indptr = np.searchsorted(key, np.arange(m + 1) * n).astype(index_dtype)
        indices = (key % max(n, 1)).astype(index_dtype)
        return cls(shape=(m, n), indptr=indptr, indices=indices, data=vals)

    @property
    def nnz(self) -> int:
        """Number of stored entries (explicit zeros included)."""
        return int(self.indptr[-1])

    def to_scipy(self):
        """The same matrix as a ``scipy.sparse.csr_matrix``, sharing the arrays."""
        # deferred: scipy.sparse is needed only for sparse algebra
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense matrix, for ``np.asarray`` (and linprog's dense input)."""
        dense = np.zeros(self.shape, dtype=dtype or np.float64)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


@dataclass
class AssembledLP:
    """A minimisation LP: ``min c @ x + objective_constant`` subject to
    ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq`` and ``bounds``.

    A ``>=`` row is written negated, as a ``<=`` row.  Columns carry no
    names: a column is its index ``j``.  ``a_ub`` and ``a_eq`` are :class:`CsrMatrix` values.  ``HighsBackend``
    and the model linter read only their ``shape``, ``indptr``, ``indices``
    and ``data``, so a ``scipy.sparse.csr_matrix`` works there too.
    """

    c: np.ndarray
    a_ub: CsrMatrix
    b_ub: np.ndarray
    a_eq: CsrMatrix
    b_eq: np.ndarray
    bounds: np.ndarray  # shape (n, 2): [lower, upper]
    objective_constant: float = 0.0
    #: model name carried into LP solve profiles (see repro.obs.lpprof)
    name: str = "lp"

    @property
    def num_variables(self) -> int:
        """Number of columns in the assembled system."""
        return int(self.c.shape[0])
