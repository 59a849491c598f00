"""Linear-programming substrate used by the LiPS scheduler.

The paper solves its scheduling models with GLPK.  This package provides an
equivalent, self-contained LP layer with two interchangeable backends:

* :class:`~repro.lp.scipy_backend.HighsBackend` — one direct call per
  solve into the HiGHS core SciPy bundles; the default, fast path.  Its
  plans are bit-identical to :func:`scipy.optimize.linprog`'s, which the
  tests keep as its oracle.  HiGHS loads at the first solve, not at
  import, and only its core extension: neither ``scipy.optimize`` nor
  ``scipy.sparse`` is imported on this path.
* :class:`~repro.lp.simplex.SimplexBackend` — a small from-scratch dense
  two-phase revised simplex: the independent reference that
  cross-validates HiGHS (tests, ``repro check``) and the last-resort
  fallback of :class:`~repro.resilience.ResilientSolver`.

:func:`~repro.lp.validation.certify` proves a backend's optimum from its
own duals (primal feasibility, dual signs, reduced costs and a closed
primal-dual gap) in one vectorised pass, with no second solve; it is
``repro bench``'s gate.

A model is an :class:`~repro.lp.problem.AssembledLP`: the objective, the
``<=`` and ``==`` rows as :class:`~repro.lp.problem.CsrMatrix` numpy arrays
and the column bounds, built by :class:`~repro.core.assembly.ModelAssembler`
or straight from :meth:`~repro.lp.problem.CsrMatrix.from_coo`, and solved
through each backend's one method, ``solve_assembled``.  Only
the simplex's standard-form conversion (and tests) turn the matrices into
``scipy.sparse``.
"""

from repro.lp.result import LPResult, LPStatus
from repro.lp.scipy_backend import HighsBackend
from repro.lp.simplex import SimplexBackend, SimplexError
from repro.lp.standard_form import StandardFormLP, to_standard_form
from repro.lp.validation import certify

__all__ = [
    "HighsBackend",
    "LPResult",
    "LPStatus",
    "SimplexBackend",
    "SimplexError",
    "StandardFormLP",
    "certify",
    "set_default_backend",
    "to_standard_form",
]

#: Backend the scheduling models (``simple_task``, ``co_offline``,
#: ``co_online``) solve with when no backend is passed to them.
DEFAULT_BACKEND = HighsBackend()


def set_default_backend(backend) -> object:
    """Install ``backend`` as the module-wide default; returns the previous one.

    Call sites resolve ``DEFAULT_BACKEND`` at solve time, so installing a
    wrapped backend (e.g. :class:`repro.resilience.ResilientSolver`) here
    reroutes every default-backend solve in the process — the CLI's
    ``--solver-timeout``/``--solver-retries``/``--solver-fallback`` flags use
    this.
    """
    global DEFAULT_BACKEND
    previous = DEFAULT_BACKEND
    DEFAULT_BACKEND = backend
    return previous
