"""Offline cost-efficient co-scheduling — paper Figure 3.

Both task fractions ``x^t_{klm}`` *and* data placement fractions ``x^d_{ij}``
are decision variables; the objective adds the cost of moving data from its
original locations (Eq. 6) to execution (Eq. 7) and runtime transfer (Eq. 8):

    min  sum_{i,j}   x^d_{ij} * Size(D_i) * SS_{O(i),j}
       + sum_{k,l,m} x^t_{klm} * JM_kl
       + sum_{k,l,m} x^t_{klm} * MS_lm * Size(D_k)

subject to data coverage (9), job coverage (10), store capacity (11),
machine capacity (12), the read/placement coupling (13) and box bounds
(14)-(15).

This remains an LP — the paper's central claim that dollar-cost-optimal
co-scheduling is poly-time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.lp.result import LPStatus


def solve_co_offline(
    inp: SchedulingInput,
    backend: Optional[object] = None,
    horizon: Optional[float] = None,
    store_capacity: Optional[np.ndarray] = None,
    placement_tiebreak: float = 0.0,
) -> CoScheduleSolution:
    """Solve the Figure 3 co-scheduling LP.

    Raises ``RuntimeError`` when infeasible (insufficient CPU or storage
    capacity — the offline model has no fake node).
    """
    if backend is None:
        from repro.lp import DEFAULT_BACKEND

        backend = DEFAULT_BACKEND
    assembler = ModelAssembler(
        inp,
        include_xd=True,
        horizon=horizon,
        store_capacity=store_capacity,
        placement_tiebreak=placement_tiebreak,
    )
    asm = assembler.build()
    asm.name = "co-offline"
    result = backend.solve_assembled(asm)
    if result.status is not LPStatus.OPTIMAL:
        raise RuntimeError(
            f"co-scheduling model not solvable: {result.status.value} "
            f"({result.message})"
        )
    return assembler.decode(result.x, result.objective, model="co-offline")
