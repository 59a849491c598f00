"""From-scratch two-phase revised simplex solver.

The paper solves its scheduling LPs with GLPK's simplex; this module is an
independent, dependency-free (NumPy/SciPy only) reference implementation.
It cross-validates the HiGHS backend (the test suite, ``repro check``,
``repro bench``) and is the last-resort fallback of
:class:`~repro.resilience.ResilientSolver`.  Every solve is cold.

Implementation notes
--------------------
* Operates on :class:`~repro.lp.standard_form.StandardFormLP`
  (``min c@y, A@y == b, y >= 0, b >= 0``) whose matrix is sparse CSC.
* Phase 1 minimises the sum of artificial variables to find a basic feasible
  solution; phase 2 optimises the true objective from there.
* Pricing uses Dantzig's rule (most negative reduced cost) with an automatic
  switch to Bland's rule after a stall to guarantee termination under
  degeneracy.
* The basis is held as an explicit dense inverse (:class:`BasisInverse`)
  with rank-one product-form updates.  Basic values are maintained
  incrementally across pivots; both are recomputed from scratch at each
  periodic refactorisation (``refactor_every``), which bounds numerical
  drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.lp.result import LPResult, LPStatus
from repro.lp.standard_form import StandardFormLP, to_standard_form
from repro.obs import lpprof

if TYPE_CHECKING:
    import scipy.sparse


class SimplexError(RuntimeError):
    """Raised on internal simplex failures (singular basis, iteration cap).

    ``status`` carries the structured :class:`LPStatus` the failure maps to
    (``ITERATION_LIMIT`` for pivot-cap exhaustion, ``NUMERICAL`` for
    degenerate/singular pivots and non-convergence), so callers catching the
    exception — or receiving the :class:`LPResult` it is converted into —
    never have to classify by message text.
    """

    def __init__(self, message: str, status: LPStatus = LPStatus.NUMERICAL) -> None:
        super().__init__(message)
        self.status = status


class BasisSingularError(RuntimeError):
    """The selected basis matrix is (numerically) singular."""


def dense_column(a: scipy.sparse.csc_matrix, j: int) -> np.ndarray:
    """Dense copy of column ``j`` of a CSC matrix (one indptr slice)."""
    out = np.zeros(a.shape[0])
    start, end = a.indptr[j], a.indptr[j + 1]
    out[a.indices[start:end]] = a.data[start:end]
    return out


class BasisInverse:
    """Explicit dense inverse of the basis ``a[:, basis]``.

    The revised simplex needs only the products ``B^-1 v`` (FTRAN: pivot
    directions, basic values) and ``w B^-1`` (BTRAN: row prices, inverse
    rows).  Each pivot applies an O(m^2) rank-one product-form update;
    :meth:`refactor` recomputes the inverse from scratch.
    """

    def __init__(self, a: scipy.sparse.csc_matrix, basis: np.ndarray) -> None:
        self.b_inv: np.ndarray = np.zeros((0, 0))
        self.refactor(a, basis)

    def refactor(self, a: scipy.sparse.csc_matrix, basis: np.ndarray) -> None:
        """Recompute the inverse from scratch (drift control)."""
        cols = a[:, basis].toarray()
        try:
            b_inv = np.linalg.inv(cols)
        except np.linalg.LinAlgError:
            raise BasisSingularError("singular basis matrix") from None
        if not np.all(np.isfinite(b_inv)):
            raise BasisSingularError("non-finite basis inverse")
        # LAPACK will "invert" an exactly singular matrix when rounding
        # leaves it a tiny nonzero pivot; a 1-norm condition estimate
        # (O(m^2), cheap next to the O(m^3) inversion) catches that
        if cols.size:
            cond = float(
                np.abs(cols).sum(axis=0).max() * np.abs(b_inv).sum(axis=0).max()
            )
            if not np.isfinite(cond) or cond > 1e14:
                raise BasisSingularError("numerically singular basis (cond estimate)")
        self.b_inv = b_inv

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 @ v``."""
        return self.b_inv @ v

    def btran(self, w: np.ndarray) -> np.ndarray:
        """``w @ B^-1``."""
        return w @ self.b_inv

    def unit_btran(self, i: int) -> np.ndarray:
        """Row ``i`` of ``B^-1`` (BTRAN of a unit vector)."""
        return self.b_inv[i].copy()

    def update(self, leaving: int, direction: np.ndarray) -> None:
        """Rank-one product-form update for one pivot, O(m^2)."""
        pivot = direction[leaving]
        coef = direction / (-pivot)
        coef[leaving] = 0.0
        pivot_row = self.b_inv[leaving].copy()
        self.b_inv += np.outer(coef, pivot_row)
        self.b_inv[leaving] = pivot_row / pivot


@dataclass
class _Tableau:
    """Mutable simplex state: basis indices, basis inverse, values."""

    a: scipy.sparse.csc_matrix
    b: np.ndarray
    basis: np.ndarray  # column index of each basic variable, len m
    inverse: BasisInverse
    xb_val: np.ndarray  # current basic values B^-1 b, maintained incrementally
    pivots_since_refactor: int = 0

    def xb(self) -> np.ndarray:
        return self.xb_val


class SimplexBackend:
    """Two-phase revised simplex over an explicit dense basis inverse.

    Parameters
    ----------
    max_iterations:
        Safety cap on total pivots across both phases.
    tol:
        Numerical tolerance for reduced costs / ratio tests.
    bland_after:
        Number of non-improving pivots after which pricing switches from
        Dantzig to Bland's anti-cycling rule.
    refactor_every:
        Recompute the basis inverse after this many rank-one updates (0
        disables).  Updates accumulate rounding; periodic refactorisation
        keeps long solves well conditioned.
    """

    name = "simplex"

    def __init__(
        self,
        max_iterations: int = 20000,
        tol: float = 1e-9,
        bland_after: int = 50,
        refactor_every: int = 256,
    ) -> None:
        self.max_iterations = max_iterations
        self.tol = tol
        self.bland_after = bland_after
        self.refactor_every = refactor_every

    # -- public API -----------------------------------------------------------
    def solve_assembled(self, asm) -> LPResult:
        """Solve an :class:`~repro.lp.problem.AssembledLP`.

        When an :mod:`repro.obs.lpprof` collector is installed the solve is
        profiled (shape, wall time, iterations, status).
        """
        if not lpprof.active():
            return self._solve_assembled(asm)
        return lpprof.observed_solve(self.name, asm, self._solve_assembled)

    def _solve_assembled(self, asm) -> LPResult:
        if asm.num_variables == 0:
            feasible = bool(np.all(asm.b_ub >= 0)) and bool(np.all(asm.b_eq == 0))
            return LPResult(
                status=LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE,
                objective=asm.objective_constant if feasible else float("nan"),
                x=np.zeros(0),
                backend=self.name,
            )
        std = to_standard_form(asm)
        try:
            status, y, iters, pi = self._solve_standard(std)
        except SimplexError as exc:
            return LPResult(
                status=exc.status,
                objective=float("nan"),
                x=None,
                backend=self.name,
                message=str(exc),
            )
        if status is not LPStatus.OPTIMAL:
            return LPResult(
                status=status,
                objective=float("nan") if status is LPStatus.INFEASIBLE else float("-inf"),
                x=None,
                backend=self.name,
                iterations=iters,
            )
        x = std.recover(y)
        objective = float(std.c @ y) + std.objective_constant
        dual_ub, dual_eq = self._map_duals(std, pi, asm)
        return LPResult(
            status=LPStatus.OPTIMAL,
            objective=objective,
            x=x,
            iterations=iters,
            backend=self.name,
            dual_ub=dual_ub,
            dual_eq=dual_eq,
        )

    @staticmethod
    def _map_duals(std, pi, asm):
        """Map standard-form row prices back to the assembled rows.

        ``pi[i]`` is d(objective)/d(b_std[i]); a standard row is ``sign``
        times the original, so the original marginal is ``sign * pi[i]``.
        Bound rows fold into variable reduced costs and are not reported.
        """
        if pi is None:
            return None, None
        dual_ub = np.zeros(asm.a_ub.shape[0])
        dual_eq = np.zeros(asm.a_eq.shape[0])
        for i, (kind, idx, sign) in enumerate(std.row_origin):
            # undo equilibration: the scaled row is (orig / scale), so the
            # marginal w.r.t. the original rhs picks up a 1/scale factor
            value = sign * pi[i] / std.row_scale[i]
            if kind == "ub":
                dual_ub[idx] = value
            elif kind == "eq":
                dual_eq[idx] = value
        return dual_ub, dual_eq

    # -- tableau helpers --------------------------------------------------------
    def _make_tableau(
        self, a: scipy.sparse.csc_matrix, b: np.ndarray, basis: np.ndarray
    ) -> _Tableau:
        """Invert ``basis`` and seed the incremental basic values."""
        inverse = BasisInverse(a, basis)
        return _Tableau(a=a, b=b, basis=basis, inverse=inverse, xb_val=inverse.ftran(b))

    # -- standard form driver ---------------------------------------------------
    def _solve_standard(
        self, std: StandardFormLP
    ) -> tuple[LPStatus, np.ndarray, int, "np.ndarray | None"]:
        # deferred: scipy.sparse is loaded only when the reference simplex runs
        from scipy import sparse

        a, b, c = std.a, std.b, std.c
        m, n = a.shape
        if m == 0:
            # No constraints: optimum is 0 for c >= 0, else unbounded.
            if np.any(c < -self.tol):
                return LPStatus.UNBOUNDED, np.zeros(n), 0, None
            return LPStatus.OPTIMAL, np.zeros(n), 0, np.zeros(0)

        # ---- phase 1: artificial basis ----
        a1 = sparse.hstack([a, sparse.identity(m, format="csc")], format="csc")
        c1 = np.concatenate([np.zeros(n), np.ones(m)])
        try:
            tab = self._make_tableau(a1, b, np.arange(n, n + m))
        except BasisSingularError as exc:
            raise SimplexError(str(exc)) from None
        status, iters1 = self._iterate(tab, c1)
        if status is not LPStatus.OPTIMAL:
            raise SimplexError("phase 1 did not converge")
        phase1_obj = float(c1[tab.basis] @ tab.xb())
        if phase1_obj > 1e-7:
            return LPStatus.INFEASIBLE, np.zeros(n), iters1, None

        # Drive any artificial variables still in the basis out (degeneracy).
        self._purge_artificials(tab, n)

        # ---- phase 2 ----
        # Narrowing to the structural columns does not disturb the inverse:
        # only column *indices* are renamed, the basis matrix itself is
        # unchanged.
        tab.a = tab.a[:, :n].tocsc()
        c2 = c
        # Rows whose basic variable is an un-purgeable artificial correspond
        # to redundant constraints; freeze them by keeping the artificial at
        # zero with zero cost.
        art_rows = tab.basis >= n
        if np.any(art_rows):
            keep = sparse.identity(m, format="csc")[:, np.where(art_rows)[0]]
            tab.a = sparse.hstack([tab.a, keep], format="csc")
            c2 = np.concatenate([c, np.zeros(int(art_rows.sum()))])
            remap = {}
            for new_j, row in enumerate(np.where(art_rows)[0]):
                remap[n + row] = n + new_j
            tab.basis = np.array([remap.get(j, j) for j in tab.basis])
        status, iters2 = self._iterate(tab, c2)
        if status is LPStatus.UNBOUNDED:
            return LPStatus.UNBOUNDED, np.zeros(n), iters1 + iters2, None
        if status is not LPStatus.OPTIMAL:
            raise SimplexError("phase 2 did not converge")
        y = np.zeros(tab.a.shape[1])
        y[tab.basis] = tab.xb()
        pi = tab.inverse.btran(c2[tab.basis])  # row prices: d(obj)/d(b)
        return LPStatus.OPTIMAL, y[:n], iters1 + iters2, pi

    # -- pivoting ---------------------------------------------------------------
    def _iterate(self, tab: _Tableau, c: np.ndarray) -> tuple[LPStatus, int]:
        m = tab.b.shape[0]
        at = tab.a.T  # CSR view of the transpose, shared data
        stall = 0
        last_obj = np.inf
        for it in range(self.max_iterations):
            xb = tab.xb()
            obj = float(c[tab.basis] @ xb)
            if obj < last_obj - self.tol:
                stall = 0
            else:
                stall += 1
            last_obj = obj
            use_bland = stall > self.bland_after

            # reduced costs: r = c - (c_B B^-1) A
            y_dual = tab.inverse.btran(c[tab.basis])
            reduced = c - at @ y_dual
            reduced[tab.basis] = 0.0  # numerical exactness for basics

            if use_bland:
                candidates = np.where(reduced < -self.tol)[0]
                if candidates.size == 0:
                    return LPStatus.OPTIMAL, it
                entering = int(candidates[0])
            else:
                entering = int(np.argmin(reduced))
                if reduced[entering] >= -self.tol:
                    return LPStatus.OPTIMAL, it

            direction = tab.inverse.ftran(dense_column(tab.a, entering))
            positive = direction > self.tol
            if not np.any(positive):
                return LPStatus.UNBOUNDED, it

            ratios = np.full(m, np.inf)
            ratios[positive] = xb[positive] / direction[positive]
            if use_bland:
                min_ratio = ratios.min()
                ties = np.where(ratios <= min_ratio + self.tol)[0]
                # Bland: leave the tied row whose basic variable has the
                # smallest index.
                leaving = int(ties[np.argmin(tab.basis[ties])])
            else:
                leaving = int(np.argmin(ratios))

            self._pivot(tab, entering, leaving, direction)
        raise SimplexError(
            f"iteration cap {self.max_iterations} reached",
            status=LPStatus.ITERATION_LIMIT,
        )

    def _pivot(self, tab: _Tableau, entering: int, leaving: int, direction: np.ndarray) -> None:
        """One basis exchange: rank-one inverse update plus incremental values."""
        pivot = direction[leaving]
        if abs(pivot) < 1e-12:
            raise SimplexError("numerically singular pivot")
        tab.inverse.update(leaving, direction)
        t = tab.xb_val[leaving] / pivot
        tab.xb_val -= t * direction
        tab.xb_val[leaving] = t
        tab.basis[leaving] = entering
        tab.pivots_since_refactor += 1
        if self.refactor_every and tab.pivots_since_refactor >= self.refactor_every:
            self._refactor(tab)

    @staticmethod
    def _refactor(tab: _Tableau) -> None:
        """Re-invert the basis and refresh the basic values (drift control)."""
        try:
            tab.inverse.refactor(tab.a, tab.basis)
        except BasisSingularError:
            raise SimplexError("singular basis at refactorisation") from None
        tab.xb_val = tab.inverse.ftran(tab.b)
        tab.pivots_since_refactor = 0

    def _purge_artificials(self, tab: _Tableau, n: int) -> None:
        """Pivot basic artificial variables out where a real column can enter."""
        m = tab.b.shape[0]
        struct_t = tab.a[:, :n].T.tocsr()
        for row in range(m):
            if tab.basis[row] < n:
                continue
            row_vec = struct_t @ tab.inverse.unit_btran(row)
            candidates = np.where(np.abs(row_vec) > 1e-9)[0]
            if candidates.size == 0:
                continue  # redundant row; handled in phase 2
            entering = int(candidates[0])
            direction = tab.inverse.ftran(dense_column(tab.a, entering))
            self._pivot(tab, entering, row, direction)
        tab.pivots_since_refactor = 0
