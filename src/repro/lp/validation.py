"""An LP optimality certificate from the solver's own duals.

:func:`certify` proves (or refutes) that an optimal-status
:class:`~repro.lp.result.LPResult` is an optimum of its
:class:`~repro.lp.problem.AssembledLP` by LP duality, in one vectorised
O(nnz) pass over the model's compressed-row arrays and no second solve:

* **primal feasibility** — every row and bound holds within
  ``PRIMAL_TOL * max(1, scale)``, the scale being the row's largest
  coefficient or rhs (the bound's magnitude for a bound);
* **dual sign** — every ``<=`` row dual is ``<= DUAL_TOL`` (a marginal
  d(objective)/d(b_ub) of a minimisation);
* **reduced costs** — ``d = c - A_ubᵀ y_ub - A_eqᵀ y_eq`` has the sign an
  infinite bound allows (``d <= DUAL_TOL`` without a lower bound,
  ``d >= -DUAL_TOL`` without an upper one);
* **objective** — the primal objective ``cᵀx`` and the dual objective
  ``b·y + Σ lⱼ·max(dⱼ, 0) + Σ uⱼ·min(dⱼ, 0)`` agree within ``GAP_TOL``
  relative, and ``result.objective`` is ``cᵀx`` plus the model constant.

Missing duals (a backend that reports none) are taken as zero: that is a
valid, if weak, dual candidate, so the gap check still decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.lp.result import LPResult

#: primal feasibility tolerance, relative to max(1, row or bound scale):
#: HiGHS's own ``primal_feasibility_tolerance``
PRIMAL_TOL = 1e-7

#: dual feasibility tolerance on row duals and reduced costs: HiGHS's own
#: ``dual_feasibility_tolerance``
DUAL_TOL = 1e-7

#: largest primal-dual (and reported-objective) gap, relative to
#: max(1, |cᵀx|)
GAP_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Outcome of :func:`certify`: each check's worst residual, and what failed.

    ``failures`` names the failed checks (``primal``, ``dual_sign``,
    ``reduced_cost``, ``gap``, ``objective``, or why nothing could be
    checked); the certificate holds when it is empty.
    """

    primal_residual: float
    dual_residual: float
    gap: float
    failures: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when every check passed: the point is a proven optimum."""
        return not self.failures


def _row_products(a, v: np.ndarray) -> np.ndarray:
    """``A @ v`` for a compressed-row matrix."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return np.bincount(rows, weights=a.data * v[a.indices], minlength=a.shape[0])


def _transpose_products(a, y: np.ndarray) -> np.ndarray:
    """``Aᵀ @ y`` for a compressed-row matrix."""
    weights = a.data * np.repeat(y, np.diff(a.indptr))
    return np.bincount(a.indices, weights=weights, minlength=a.shape[1])


def _row_scale(a, b: np.ndarray) -> np.ndarray:
    """Per row ``max(1, |b_i|, max_j |a_ij|)``."""
    scale = np.maximum(1.0, np.abs(b))
    filled = np.flatnonzero(np.diff(a.indptr))
    if filled.size:
        # reduceat over the non-empty rows' starts: each segment runs to
        # the next non-empty row, so empty rows in between add nothing
        widest = np.maximum.reduceat(np.abs(a.data), a.indptr[filled])
        scale[filled] = np.maximum(scale[filled], widest)
    return scale


def _worst(values: np.ndarray) -> float:
    """The largest value, 0 for none; NaN if any is NaN (so checks fail)."""
    return float(values.max(initial=0.0))


def certify(asm, result: LPResult) -> Certificate:
    """Check that ``result`` is an optimum of ``asm`` by LP duality.

    ``asm`` is an :class:`~repro.lp.problem.AssembledLP` (its matrices
    need only ``shape``, ``indptr``, ``indices`` and ``data``).  A result
    that is not optimal, or has no solution vector, fails outright.
    """
    if not result.is_optimal:
        return Certificate(np.inf, np.inf, np.inf, (f"status {result.status.value}",))
    if result.x is None:
        return Certificate(np.inf, np.inf, np.inf, ("no solution vector",))
    x = np.asarray(result.x, dtype=np.float64)
    c = np.asarray(asm.c, dtype=np.float64)
    lower, upper = asm.bounds[:, 0], asm.bounds[:, 1]
    failures = []

    # primal feasibility, each residual over its tolerance scale
    has_lo, has_hi = np.isfinite(lower), np.isfinite(upper)
    primal = np.concatenate(
        (
            np.maximum(_row_products(asm.a_ub, x) - asm.b_ub, 0.0)
            / _row_scale(asm.a_ub, asm.b_ub),
            np.abs(_row_products(asm.a_eq, x) - asm.b_eq)
            / _row_scale(asm.a_eq, asm.b_eq),
            np.maximum(lower[has_lo] - x[has_lo], 0.0)
            / np.maximum(1.0, np.abs(lower[has_lo])),
            np.maximum(x[has_hi] - upper[has_hi], 0.0)
            / np.maximum(1.0, np.abs(upper[has_hi])),
        )
    )
    primal_residual = _worst(primal)
    if not primal_residual <= PRIMAL_TOL:
        failures.append("primal")

    # dual sign and reduced costs
    y_ub = np.zeros(asm.b_ub.shape[0]) if result.dual_ub is None else result.dual_ub
    y_eq = np.zeros(asm.b_eq.shape[0]) if result.dual_eq is None else result.dual_eq
    d = c - _transpose_products(asm.a_ub, y_ub) - _transpose_products(asm.a_eq, y_eq)
    sign = _worst(y_ub)
    reduced = _worst(np.concatenate((d[~has_lo], -d[~has_hi])))
    if not sign <= DUAL_TOL:
        failures.append("dual_sign")
    if not reduced <= DUAL_TOL:
        failures.append("reduced_cost")

    # primal and dual objectives; an infinite bound's term is zero, its
    # reduced cost's wrong-signed part being within tolerance by now
    primal_obj = float(c @ x)
    dual_obj = float(
        asm.b_ub @ y_ub
        + asm.b_eq @ y_eq
        + lower[has_lo] @ np.maximum(d[has_lo], 0.0)
        + upper[has_hi] @ np.minimum(d[has_hi], 0.0)
    )
    denom = max(1.0, abs(primal_obj))
    gap = abs(primal_obj - dual_obj) / denom
    if not gap <= GAP_TOL:
        failures.append("gap")
    reported = primal_obj + asm.objective_constant
    if not abs(result.objective - reported) <= GAP_TOL * denom:
        failures.append("objective")
    dual_residual = float(np.maximum(sign, reduced))
    return Certificate(primal_residual, dual_residual, gap, tuple(failures))
