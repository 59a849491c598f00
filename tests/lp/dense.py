"""Toy LPs for tests, written as dense arrays.

:func:`dense_lp` turns a small dense model into the one model form the
backends solve, :class:`~repro.lp.problem.AssembledLP`.  A ``>=`` row is
written negated, as a ``<=`` row.
"""

import numpy as np

from repro.lp.problem import AssembledLP, CsrMatrix


def _csr(rows, n_rows: int, n: int) -> CsrMatrix:
    """The nonzero entries of a dense ``n_rows x n`` matrix, compressed."""
    dense = np.asarray(rows, dtype=float).reshape(n_rows, n)
    r, col = np.nonzero(dense)
    return CsrMatrix.from_coo(r, col, dense[r, col], (n_rows, n))


def dense_lp(
    c,
    a_ub=(),
    b_ub=(),
    a_eq=(),
    b_eq=(),
    bounds=None,
    objective_constant: float = 0.0,
    name: str = "lp",
) -> AssembledLP:
    """``min c @ x + objective_constant`` s.t. ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``.

    ``bounds`` holds one ``(lower, upper)`` pair per column; by default
    every column is ``[0, inf)``.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    b_ub = np.asarray(b_ub, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    if bounds is None:
        bounds = [(0.0, np.inf)] * n
    return AssembledLP(
        c=c,
        a_ub=_csr(a_ub, b_ub.shape[0], n),
        b_ub=b_ub,
        a_eq=_csr(a_eq, b_eq.shape[0], n),
        b_eq=b_eq,
        bounds=np.asarray(bounds, dtype=float).reshape(n, 2),
        objective_constant=float(objective_constant),
        name=name,
    )
