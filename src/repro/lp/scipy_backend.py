"""HiGHS backend — solves assembled LPs via :func:`scipy.optimize.linprog`.

This is the production path (the paper used GLPK's simplex; HiGHS is its
modern equivalent).  The from-scratch :mod:`repro.lp.simplex` backend exists
to cross-check this one in tests.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus
from repro.obs import lpprof

# scipy linprog status codes → our normalised statuses
_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL,  # "numerical difficulties encountered"
}


class HighsBackend:
    """Solve LPs with scipy's HiGHS wrappers.

    Parameters
    ----------
    method:
        A ``linprog`` method name. ``"highs"`` lets HiGHS pick between its
        dual simplex and interior-point solvers.
    """

    name = "highs"

    def __init__(self, method: str = "highs", presolve: bool = False) -> None:
        self.method = method
        #: apply repro.lp.presolve reductions before handing the model to
        #: HiGHS; duals are then not reported (row identities change under
        #: row elimination)
        self.presolve = presolve
        #: (fixed_vars, dropped_rows) of the most recent presolve, for the
        #: profiling wrapper
        self._last_presolve = None

    def solve(self, lp: LinearProgram) -> LPResult:
        """Assemble and solve a LinearProgram, mapping names."""
        result = self.solve_assembled(lp.assemble())
        if result.x is not None:
            result.by_name = lp.value_map(result.x)
        return result

    def solve_assembled(self, asm) -> LPResult:
        """Solve a pre-assembled sparse LP (fast path for big models).

        When an :mod:`repro.obs.lpprof` collector is installed (simulator or
        epoch-controller runs), the solve's shape, wall time, iterations and
        status are recorded; otherwise profiling costs nothing.
        """
        if not lpprof.active():
            return self._solve_assembled(asm)
        self._last_presolve = None
        t0 = time.perf_counter()
        result = self._solve_assembled(asm)
        fixed, dropped = self._last_presolve or (0, 0)
        lpprof.observe(
            lpprof.LPSolveRecord(
                name=getattr(asm, "name", "lp"),
                backend=self.name,
                wall_seconds=time.perf_counter() - t0,
                iterations=result.iterations,
                status=result.status.value,
                presolve_fixed_vars=fixed,
                presolve_dropped_rows=dropped,
                presolve_applied=self.presolve,
                meta=lpprof.current_scope(),
                **lpprof.describe_assembled(asm),
            )
        )
        return result

    def _solve_assembled(self, asm) -> LPResult:
        if self.presolve:
            from repro.lp.presolve import PresolveStatus, presolve

            pre = presolve(asm)
            self._last_presolve = (pre.fixed_variables, pre.dropped_rows)
            if pre.status is PresolveStatus.INFEASIBLE:
                return LPResult(
                    status=LPStatus.INFEASIBLE,
                    objective=float("nan"),
                    x=None,
                    backend=self.name,
                    message="presolve proved infeasibility",
                )
            inner = self._solve_raw(pre.reduced)
            if inner.x is not None:
                inner.x = pre.restore(inner.x)
            # row identities changed; duals no longer line up with asm rows
            inner.dual_ub = None
            inner.dual_eq = None
            return inner
        return self._solve_raw(asm)

    def _solve_raw(self, asm) -> LPResult:
        if asm.num_variables == 0:
            # Degenerate empty model: feasible iff there are no constraints
            # with nonzero rhs requirements.
            feasible = bool(np.all(asm.b_ub >= 0)) and bool(np.all(asm.b_eq == 0))
            status = LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE
            return LPResult(
                status=status,
                objective=asm.objective_constant if feasible else float("nan"),
                x=np.zeros(0),
                by_name={},
                backend=self.name,
            )

        res = linprog(
            c=asm.c,
            A_ub=asm.a_ub if asm.a_ub.shape[0] else None,
            b_ub=asm.b_ub if asm.b_ub.shape[0] else None,
            A_eq=asm.a_eq if asm.a_eq.shape[0] else None,
            b_eq=asm.b_eq if asm.b_eq.shape[0] else None,
            bounds=asm.bounds,
            method=self.method,
        )
        status = _STATUS_MAP.get(res.status, LPStatus.ERROR)
        x = np.asarray(res.x) if res.x is not None else None
        objective = (
            float(res.fun) + asm.objective_constant
            if status is LPStatus.OPTIMAL
            else float("nan")
        )
        dual_ub = None
        dual_eq = None
        if status is LPStatus.OPTIMAL:
            ineq = getattr(res, "ineqlin", None)
            if ineq is not None and getattr(ineq, "marginals", None) is not None:
                dual_ub = np.asarray(ineq.marginals)
            eq = getattr(res, "eqlin", None)
            if eq is not None and getattr(eq, "marginals", None) is not None:
                dual_eq = np.asarray(eq.marginals)
        return LPResult(
            status=status,
            objective=objective,
            x=x,
            by_name={},
            iterations=int(getattr(res, "nit", 0) or 0),
            backend=self.name,
            message=str(res.message),
            dual_ub=dual_ub,
            dual_eq=dual_eq,
        )
