"""HiGHS backend — one direct call per solve into the HiGHS core SciPy bundles.

This is the production path (the paper used GLPK's simplex; HiGHS is its
modern equivalent).  Each solve hands HiGHS the model and options
``scipy.optimize.linprog(method="highs")`` would, so plans are bit-identical
to linprog's, but skips linprog's input re-validation and per-column
bound-marginal loop.  The constraint matrix goes in as the model's own
compressed-row numpy arrays (HiGHS transposes them to the column-wise
matrix linprog passes), and only the ``_core`` extension module is loaded,
not the ``scipy.optimize`` package around it, so a solve imports neither
``scipy.optimize`` nor ``scipy.sparse``.  ``linprog`` survives only as the
test oracle (``tests/lp/test_highs_direct.py``); the from-scratch
:mod:`repro.lp.simplex` backend cross-checks the optima.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from types import SimpleNamespace
from typing import Optional

import numpy as np
import scipy

from repro.lp.result import LPResult, LPStatus
from repro.obs import lpprof

#: the options linprog(method="highs") changes from the HiGHS defaults
_OPTIONS = (("presolve", "on"), ("output_flag", False), ("log_to_console", False))


@functools.cache
def _highs() -> SimpleNamespace:
    """The bundled HiGHS core and the constants read off it, loaded once.

    Loading waits for the first solve, so a run that never solves an LP (the
    Hadoop baselines) never pays for it.  See :func:`_load_core` for how
    the extension is found without running ``scipy.optimize``.

    * ``core`` — the ``scipy.optimize._highspy._core`` module;
    * ``STATUS_MAP`` — HiGHS model status → normalised status, as linprog
      maps them except that ``kTimeLimit`` is ``TIME_LIMIT`` (linprog folds
      it into the iteration limit).  Every other status
      (kUnboundedOrInfeasible, the load/presolve/solve/postsolve errors,
      kNotset, ...) is ``NUMERICAL``;
    * ``HIGHS_VERSION`` — ``major.minor.patch``, for benchmark host facts.
    """
    _core = _load_core()
    ms = _core.HighsModelStatus
    return SimpleNamespace(
        core=_core,
        MS=ms,
        ROWWISE=int(_core.MatrixFormat.kRowwise),
        MINIMIZE=int(_core.ObjSense.kMinimize),
        ERROR=_core.HighsStatus.kError,
        INF=_core.kHighsInf,
        STATUS_MAP={
            ms.kOptimal: LPStatus.OPTIMAL,
            ms.kTimeLimit: LPStatus.TIME_LIMIT,
            ms.kIterationLimit: LPStatus.ITERATION_LIMIT,
            ms.kInfeasible: LPStatus.INFEASIBLE,
            ms.kModelError: LPStatus.INFEASIBLE,
            ms.kUnbounded: LPStatus.UNBOUNDED,
        },
        HIGHS_VERSION=(
            f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
            f"{_core.HIGHS_VERSION_PATCH}"
        ),
    )


def _load_core():
    """The ``scipy.optimize._highspy._core`` extension module.

    Importing it by name would first run ``scipy/optimize/__init__``, which
    loads all of ``scipy.optimize`` and ``scipy.sparse`` (~50 MB) though a
    solve needs only this one module.  So the extension is found in its
    directory and loaded directly, and registered in ``sys.modules`` under
    its full name: a later ``import scipy.optimize`` (``linprog``, the
    tests' oracle) reuses it instead of registering HiGHS's types twice.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    path = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = importlib.machinery.PathFinder.find_spec(name, [path])
    if spec is None:  # pragma: no cover - depends on the installed scipy
        raise ImportError(
            "repro.lp needs scipy>=1.15 (scipy.optimize._highspy._core, the bundled HiGHS)"
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def __getattr__(name: str):
    """``STATUS_MAP`` and ``HIGHS_VERSION`` by name, loading HiGHS (PEP 562)."""
    if name in ("STATUS_MAP", "HIGHS_VERSION"):
        return getattr(_highs(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: linprog's post-solve feasibility tolerance: ``sqrt(tol) * 10`` with its
#: default ``tol = 1e-9``
FEAS_TOL = np.sqrt(1e-9) * 10


def feasible_point(x, objective, slack, con, bounds) -> bool:
    """linprog's post-solve guard on an optimal point, vectorised.

    ``slack = b_ub - A_ub @ x`` and ``con = b_eq - A_eq @ x``.  False on any
    NaN, any bound or ``<=`` row violated by more than ``FEAS_TOL``, or any
    equality residual above it.
    """
    if (
        np.isnan(objective)
        or np.isnan(x).any()
        or np.isnan(slack).any()
        or np.isnan(con).any()
    ):
        return False
    return bool(
        np.all(x >= bounds[:, 0] - FEAS_TOL)
        and np.all(x <= bounds[:, 1] + FEAS_TOL)
        and not (slack < -FEAS_TOL).any()
        and not (np.abs(con) > FEAS_TOL).any()
    )


def _highs_inf(values) -> np.ndarray:
    """A contiguous copy with ±inf mapped to HiGHS's infinity."""
    inf = _highs().INF
    return np.clip(values, -inf, inf)


class HighsBackend:
    """Solve LPs with the HiGHS dual simplex (after HiGHS presolve).

    Every solve builds and discards its own HiGHS instance; the backend
    holds only its configuration.

    Parameters
    ----------
    time_limit_s:
        Wall-clock budget per solve, enforced by HiGHS itself (its
        ``time_limit`` option): a solve that runs out stops and returns
        ``TIME_LIMIT``.  ``None`` (the default) sets no option, so solves
        stay bit-identical to ``linprog``'s.
    """

    name = "highs"

    def __init__(self, time_limit_s: Optional[float] = None) -> None:
        if time_limit_s is not None and time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive (or None)")
        self.time_limit_s = time_limit_s

    def solve_assembled(self, asm) -> LPResult:
        """Solve an :class:`~repro.lp.problem.AssembledLP`.

        When an :mod:`repro.obs.lpprof` collector is installed (simulator or
        epoch-controller runs), the solve's shape, wall time, iterations and
        status are recorded; otherwise profiling costs nothing.
        """
        if not lpprof.active():
            return self._solve_raw(asm)
        return lpprof.observed_solve(self.name, asm, self._solve_raw)

    def _solve_raw(self, asm) -> LPResult:
        n = asm.num_variables
        if n == 0:
            # Degenerate empty model: feasible iff there are no constraints
            # with nonzero rhs requirements.
            feasible = bool(np.all(asm.b_ub >= 0)) and bool(np.all(asm.b_eq == 0))
            status = LPStatus.OPTIMAL if feasible else LPStatus.INFEASIBLE
            return LPResult(
                status=status,
                objective=asm.objective_constant if feasible else float("nan"),
                x=np.zeros(0),
                backend=self.name,
            )

        # lhs <= A @ x <= rhs with A = [A_ub; A_eq], as linprog builds it;
        # stacking compressed rows is concatenation
        a_ub, a_eq = asm.a_ub, asm.a_eq
        m_ub, m_eq = asm.b_ub.shape[0], asm.b_eq.shape[0]
        if m_eq:
            indptr = np.concatenate((a_ub.indptr, a_eq.indptr[1:] + a_ub.indptr[-1]))
            indices = np.concatenate((a_ub.indices, a_eq.indices))
            data = np.concatenate((a_ub.data, a_eq.data))
            lhs = np.concatenate((np.full(m_ub, -np.inf), asm.b_eq))
            rhs = np.concatenate((asm.b_ub, asm.b_eq))
        else:
            indptr, indices, data = a_ub.indptr, a_ub.indices, a_ub.data
            lhs, rhs = np.full(m_ub, -np.inf), asm.b_ub
        h = _highs()
        highs = h.core._Highs()
        for option, value in _OPTIONS:
            highs.setOptionValue(option, value)
        if self.time_limit_s is not None:
            highs.setOptionValue("time_limit", float(self.time_limit_s))
        loaded = highs.passModel(
            n, m_ub + m_eq, int(indptr[-1]), h.ROWWISE, h.MINIMIZE, 0.0,
            asm.c, _highs_inf(asm.bounds[:, 0]), _highs_inf(asm.bounds[:, 1]),
            _highs_inf(lhs), _highs_inf(rhs),
            indptr, indices, data,
            np.zeros(n, dtype=np.int32),  # all columns continuous
        )
        ran = loaded != h.ERROR and highs.run() != h.ERROR
        model_status = highs.getModelStatus() if loaded != h.ERROR else h.MS.kModelError
        status = h.STATUS_MAP.get(model_status, LPStatus.NUMERICAL)
        info = highs.getInfo() if ran else None
        iterations = (info.simplex_iteration_count or info.ipm_iteration_count) if ran else 0
        message = highs.modelStatusToString(model_status)
        if not ran and status is LPStatus.OPTIMAL:
            status = LPStatus.NUMERICAL  # an errored run has no solution to read
        if status is not LPStatus.OPTIMAL:
            return LPResult(
                status=status,
                objective=float("nan"),
                x=None,
                iterations=iterations,
                backend=self.name,
                message=message,
            )

        solution = highs.getSolution()
        x = np.array(solution.col_value)
        row_value = np.array(solution.row_value)
        objective = info.objective_function_value
        if not feasible_point(
            x, objective, asm.b_ub - row_value[:m_ub], asm.b_eq - row_value[m_ub:], asm.bounds
        ):
            return LPResult(
                status=LPStatus.NUMERICAL,
                objective=float("nan"),
                x=x,
                iterations=iterations,
                backend=self.name,
                message=f"solution violates the constraints by more than {FEAS_TOL:.2e}",
            )
        row_dual = np.array(solution.row_dual)
        return LPResult(
            status=status,
            objective=float(objective) + asm.objective_constant,
            x=x,
            iterations=iterations,
            backend=self.name,
            message=message,
            dual_ub=row_dual[:m_ub],
            dual_eq=row_dual[m_ub:],
        )
