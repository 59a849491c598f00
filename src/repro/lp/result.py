"""Solver-independent LP results."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class LPStatus(enum.Enum):
    """Outcome of an LP solve, normalised across backends.

    ``ITERATION_LIMIT``, ``TIME_LIMIT`` and ``NUMERICAL`` are structured
    failure statuses (pivot-limit exhaustion, an exhausted wall-clock
    budget and numerical breakdown respectively) so retry layers like
    :class:`~repro.resilience.ResilientSolver` can classify failures
    without string-matching exception messages; ``ERROR`` remains the
    catch-all for anything a backend cannot attribute.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    TIME_LIMIT = "time_limit"
    NUMERICAL = "numerical"
    ERROR = "error"


@dataclass
class LPResult:
    """Result of solving an :class:`~repro.lp.problem.AssembledLP`.

    ``x`` is indexed by column.  ``objective`` includes the model's
    constant objective term.
    """

    status: LPStatus
    objective: float
    x: Optional[np.ndarray]
    iterations: int = 0
    backend: str = ""
    message: str = ""
    #: dual values (marginals) of the ``A_ub`` rows, when the backend
    #: provides them: d(objective)/d(b_ub); <= 0 for binding <= rows of a
    #: minimisation.  None when unavailable.
    dual_ub: Optional[np.ndarray] = None
    #: dual values of the ``A_eq`` rows, when available.
    dual_eq: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        """True when the solve reached optimality."""
        return self.status is LPStatus.OPTIMAL
