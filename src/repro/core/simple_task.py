"""Offline simple task scheduling — paper Figure 2.

Data placement is known (``x^d`` fixed); the LP chooses only the task
fractions ``x^t_{klm}`` minimising execution plus runtime-transfer cost:

    min  sum_{k,l,m} (JM_kl + MS_lm * Size(D_k)) x^t_{klm}
    s.t. every job fully scheduled                       (2)
         reads from a store bounded by what it holds     (3)
         machine CPU capacity over the uptime window     (4)
         0 <= x <= 1                                     (5)

This is the model Section IV uses to show that greedy locality scheduling
(Hadoop's default) is optimal only under infinite capacity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.core.solution import CoScheduleSolution
from repro.lp.result import LPStatus


def identity_placement(inp: SchedulingInput) -> np.ndarray:
    """The placement that keeps every data object at its origin store."""
    placement = np.zeros((inp.num_data, inp.num_stores))
    if inp.num_data:
        placement[np.arange(inp.num_data), inp.origin] = 1.0
    return placement


def solve_simple_task(
    inp: SchedulingInput,
    placement: Optional[np.ndarray] = None,
    backend: Optional[object] = None,
    horizon: Optional[float] = None,
) -> CoScheduleSolution:
    """Solve the Figure 2 LP.

    Parameters
    ----------
    placement:
        (D, S) fractions of each data object per store; defaults to the
        origin (identity) placement.
    backend:
        An LP backend; defaults to HiGHS.
    horizon:
        Overrides machine uptime as the capacity window.

    Raises
    ------
    RuntimeError
        If the model is infeasible (total CPU demand exceeds cluster
        capacity — the offline models have no fake node).
    """
    if backend is None:
        from repro.lp import DEFAULT_BACKEND

        backend = DEFAULT_BACKEND
    if placement is None:
        placement = identity_placement(inp)
    assembler = ModelAssembler(
        inp,
        include_xd=False,
        fixed_placement=placement,
        horizon=horizon,
    )
    asm = assembler.build()
    asm.name = "simple-task"
    result = backend.solve_assembled(asm)
    if result.status is not LPStatus.OPTIMAL:
        raise RuntimeError(
            f"simple-task model not solvable: {result.status.value} "
            f"({result.message})"
        )
    return assembler.decode(result.x, result.objective, model="simple-task")
