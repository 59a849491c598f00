"""Conversion of assembled LPs to equality standard form.

The from-scratch simplex backend operates on the classical form

    min  c @ y        s.t.  A @ y == b,   y >= 0.

This module rewrites a general model (bounded variables, ``<=``/``==`` rows)
into that form:

* a finite lower bound ``l`` is shifted out (``y = x - l``);
* a variable with ``l = -inf`` is split into a positive/negative pair;
* a finite upper bound becomes an extra ``<=`` row;
* every ``<=`` row receives a slack variable.

:func:`StandardFormLP.recover` maps a standard-form solution vector back to
the original variable space.

The conversion is fully vectorised (one sparse expansion product plus COO
scatters — no per-row Python loops) and the output matrix is **sparse CSC**:
the simplex consumes column views, and a dense ``(m, n)`` intermediate
would dominate memory on epoch-sized models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.lp.problem import AssembledLP

if TYPE_CHECKING:
    import scipy.sparse


@dataclass
class StandardFormLP:
    """``min c @ y  s.t.  A @ y == b, y >= 0`` plus the recovery recipe."""

    c: np.ndarray
    a: scipy.sparse.csc_matrix  # (m, n) CSC — the simplex backend works on column views
    b: np.ndarray
    objective_constant: float
    #: per original variable: (kind, data)
    #:   ("shift", (col, lower))        -> x = y[col] + lower
    #:   ("split", (col_pos, col_neg))  -> x = y[col_pos] - y[col_neg]
    recovery: List[Tuple[str, Tuple]]
    num_original: int
    #: per standard-form row: (kind, original index, sign) with kind one of
    #: "eq" / "ub" / "bound"; ``sign`` is -1 when the row was negated to
    #: normalise its rhs.  Lets backends map row duals back to the original
    #: constraints: dual_original = sign * dual_standard / row_scale.
    row_origin: List[Tuple[str, int, float]] = None  # type: ignore[assignment]
    #: per-row equilibration divisor applied to A and b (max |coeff|); keeps
    #: badly scaled rows from slipping past feasibility tolerances.
    row_scale: np.ndarray = None  # type: ignore[assignment]

    def recover(self, y: np.ndarray) -> np.ndarray:
        """Map a standard-form solution back to the original variables."""
        x = np.zeros(self.num_original)
        for i, (kind, data) in enumerate(self.recovery):
            if kind == "shift":
                col, lower = data
                x[i] = y[col] + lower
            else:
                col_pos, col_neg = data
                x[i] = y[col_pos] - y[col_neg]
        return x


def to_standard_form(asm: AssembledLP) -> StandardFormLP:
    """Rewrite an :class:`AssembledLP` into equality standard form."""
    # deferred: scipy.sparse is loaded only when the reference simplex runs
    from scipy import sparse

    n = asm.num_variables
    lowers = asm.bounds[:, 0]
    uppers = asm.bounds[:, 1]
    finite_lo_mask = np.isfinite(lowers)
    split_mask = ~finite_lo_mask

    recovery: List[Tuple[str, Tuple]] = []
    # std column of each original var: shifted vars get one column, split
    # vars get an adjacent (pos, neg) pair.
    width = np.where(split_mask, 2, 1)
    first_col = np.concatenate([[0], np.cumsum(width)[:-1]]) if n else np.zeros(0, dtype=int)
    n_std = int(width.sum())
    for i in range(n):
        col = int(first_col[i])
        if finite_lo_mask[i]:
            recovery.append(("shift", (col, float(lowers[i]))))
        else:
            recovery.append(("split", (col, col + 1)))

    if np.any(split_mask):
        rows_e = np.concatenate([np.arange(n), np.where(split_mask)[0]])
        cols_e = np.concatenate([first_col, first_col[split_mask] + 1])
        vals_e = np.concatenate([np.ones(n), -np.ones(int(split_mask.sum()))])
        expand = sparse.csr_matrix((vals_e, (rows_e, cols_e)), shape=(n, n_std))
    else:
        expand = None  # identity: std columns == original columns

    bound_vars = np.where(np.isfinite(uppers))[0]
    bound_cols = np.full((bound_vars.shape[0], 2), -1, dtype=int)
    bound_cols[:, 0] = first_col[bound_vars]
    neg_of_bound = split_mask[bound_vars]
    bound_cols[neg_of_bound, 1] = first_col[bound_vars[neg_of_bound]] + 1

    a_eq, a_ub = asm.a_eq.to_scipy(), asm.a_ub.to_scipy()
    m_eq = a_eq.shape[0]
    m_ub = a_ub.shape[0]
    nb = bound_vars.shape[0]
    slack_count = m_ub + nb
    origins_base: List[Tuple[str, int]] = (
        [("eq", r) for r in range(m_eq)]
        + [("ub", r) for r in range(m_ub)]
        + [("bound", int(i)) for i in bound_vars]
    )

    finite_lo = np.where(finite_lo_mask, lowers, 0.0)

    # --- objective over std columns -----------------------------------------
    obj_const = asm.objective_constant + float(asm.c @ finite_lo)
    if expand is None:
        c = asm.c.astype(float, copy=True)
    else:
        c = np.asarray(asm.c @ expand).reshape(-1)

    # --- rows: shift rhs by lower bounds, expand columns ---------------------
    total_rows = m_eq + m_ub + nb

    b_eq = asm.b_eq - (a_eq @ finite_lo) if m_eq else asm.b_eq.copy()
    b_ub = asm.b_ub - (a_ub @ finite_lo) if m_ub else asm.b_ub.copy()

    # Assemble the standard-form matrix as COO triplets: the eq/ub blocks
    # (expanded over split columns when needed), the bound rows, and the
    # slack identity — never materialising a dense (m, n) intermediate.
    n_cols = n_std + slack_count
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []

    def _add_block(block, row_offset: int) -> None:
        coo = block.tocoo()
        rows_parts.append(coo.row.astype(np.int64) + row_offset)
        cols_parts.append(coo.col.astype(np.int64))
        vals_parts.append(coo.data.astype(float))

    if m_eq:
        _add_block(a_eq if expand is None else a_eq @ expand, 0)
    if m_ub:
        _add_block(a_ub if expand is None else a_ub @ expand, m_eq)
    # upper bounds become <= rows in shifted space: y <= upper - lower
    if nb:
        rb = m_eq + m_ub + np.arange(nb)
        rows_parts.append(rb)
        cols_parts.append(bound_cols[:, 0].astype(np.int64))
        vals_parts.append(np.ones(nb))
        has_neg = bound_cols[:, 1] >= 0
        if np.any(has_neg):
            rows_parts.append(rb[has_neg])
            cols_parts.append(bound_cols[has_neg, 1].astype(np.int64))
            vals_parts.append(-np.ones(int(has_neg.sum())))
    # count structural entries before the slack identity joins: equilibration
    # scales by the largest *structural* coefficient of each row
    n_struct_entries = sum(v.shape[0] for v in vals_parts)
    # slack columns: one per <= row (ub rows, then bound rows)
    if slack_count:
        rows_parts.append(m_eq + np.arange(slack_count))
        cols_parts.append(n_std + np.arange(slack_count))
        vals_parts.append(np.ones(slack_count))

    if rows_parts:
        rows_idx = np.concatenate(rows_parts)
        cols_idx = np.concatenate(cols_parts)
        vals = np.concatenate(vals_parts)
    else:
        rows_idx = np.zeros(0, dtype=np.int64)
        cols_idx = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0)

    c_full = np.concatenate([c, np.zeros(slack_count)])
    b_full = np.concatenate(
        [
            b_eq.astype(float),
            b_ub.astype(float),
            (uppers[bound_vars] - finite_lo[bound_vars]).astype(float),
        ]
    )

    # row equilibration: divide every row by its largest structural
    # coefficient so relative and absolute feasibility tolerances agree
    # (a row like 1e-8*x <= -1e-8 is a *100%* violation of x >= 1 even
    # though its absolute residual is tiny)
    if total_rows:
        scale = np.zeros(total_rows)
        np.maximum.at(
            scale,
            rows_idx[:n_struct_entries],
            np.abs(vals[:n_struct_entries]),
        )
        scale[scale < 1e-300] = 1.0
        vals /= scale[rows_idx]
        b_full /= scale
    else:
        scale = np.ones(0)

    # normalise rows to b >= 0 (phase-1 requirement)
    neg = b_full < 0
    if np.any(neg):
        vals[neg[rows_idx]] *= -1.0
        b_full[neg] *= -1.0
    a = sparse.csc_matrix((vals, (rows_idx, cols_idx)), shape=(total_rows, n_cols))
    origins = [
        (kind, idx, -1.0 if neg[r] else 1.0)
        for r, (kind, idx) in enumerate(origins_base)
    ]

    return StandardFormLP(
        c=c_full,
        a=a,
        b=b_full,
        objective_constant=obj_const,
        recovery=recovery,
        num_original=n,
        row_origin=origins,
        row_scale=scale,
    )
